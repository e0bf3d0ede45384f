"""Master data management (paper Fig. 1, "master data manager")."""

from repro.master.manager import MasterDataManager, MasterMatch
from repro.master.remote import RemoteMasterStore
from repro.master.store import (
    STORE_BACKENDS,
    MasterStore,
    SingleRelationStore,
    SqliteMasterStore,
    make_store,
    require_scalar_cells,
    shard_of,
)

__all__ = [
    "MasterDataManager",
    "MasterMatch",
    "MasterStore",
    "SingleRelationStore",
    "SqliteMasterStore",
    "RemoteMasterStore",
    "STORE_BACKENDS",
    "make_store",
    "require_scalar_cells",
    "shard_of",
]
