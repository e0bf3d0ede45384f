"""CLI tests for the instance (init) and web-serve entry points."""

import pytest

from repro.config import load_instance
from repro.explorer.cli import build_parser, main
from repro.scenarios import uk_customers as uk


class TestInitCommand:
    def test_init_uk_paper_data(self, tmp_path, capsys):
        out = tmp_path / "inst"
        assert main(["init", "--scenario", "uk", "--out", str(out)]) == 0
        assert (out / "instance.json").exists()
        engine, config = load_instance(out)
        assert config.name == "uk-customers"
        assert len(engine.master) == 2  # the paper tuples
        assert len(engine.ruleset) == 9

    def test_init_generated_master(self, tmp_path):
        out = tmp_path / "inst"
        assert main(["init", "--scenario", "uk", "--master-size", "30",
                     "--out", str(out)]) == 0
        engine, _ = load_instance(out)
        assert len(engine.master) == 32  # paper 2 + generated 30

    def test_init_hospital(self, tmp_path):
        out = tmp_path / "inst"
        assert main(["init", "--scenario", "hospital", "--master-size", "25",
                     "--out", str(out)]) == 0
        engine, config = load_instance(out)
        assert config.name == "hospital"
        assert len(engine.master) == 25
        assert len(engine.ruleset) > 100

    def test_initialized_instance_fixes(self, tmp_path):
        out = tmp_path / "inst"
        main(["init", "--scenario", "uk", "--out", str(out)])
        engine, _ = load_instance(out)
        truth = uk.fig3_truth()
        session = engine.session(uk.fig3_tuple(), "t")
        session.validate({a: truth[a] for a in ("AC", "phn", "type", "item")})
        session.validate({"zip": truth["zip"]})
        assert session.fixed_values() == truth


class TestServeParser:
    def test_parser_accepts_serve(self):
        args = build_parser().parse_args(["serve", "--scenario", "uk", "--port", "0"])
        assert args.command == "serve"
        assert args.port == 0

    def test_parser_accepts_instance_flag(self, tmp_path):
        args = build_parser().parse_args(["serve", "--instance", str(tmp_path)])
        assert args.instance == str(tmp_path)

    @pytest.mark.parametrize(
        "flags",
        [["--store", "sqlite"], ["--shard-urls", "127.0.0.1:1"], ["--store-path", "m.db"]],
    )
    def test_store_flags_conflict_with_instance(self, tmp_path, capsys, flags):
        """--instance configures the backend in the document; any explicit
        --store flag must be rejected, not silently ignored."""
        rc = main(["serve", "--instance", str(tmp_path), *flags])
        assert rc == 2
        assert "--store flags conflict with --instance" in capsys.readouterr().err

    def test_removed_sharded_store_exits_2(self, capsys):
        """The in-process sharded backend is gone: argparse refuses it
        before any file is read."""
        with pytest.raises(SystemExit) as exc:
            main(["clean", "--input", "dirty.csv", "--store", "sharded"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'sharded'" in err
        assert "single, sqlite, remote" in err or "'single', 'sqlite', 'remote'" in err
