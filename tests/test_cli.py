"""Tests for the command-line interface and dataset file I/O."""

import numpy as np
import pytest

from repro.cli import main
from repro.data.io import load_points, save_points


class TestIO:
    def test_npy_roundtrip(self, tmp_path, rng):
        pts = rng.random((20, 3))
        path = tmp_path / "pts.npy"
        save_points(path, pts)
        np.testing.assert_allclose(load_points(path), pts)

    def test_csv_roundtrip(self, tmp_path, rng):
        pts = rng.random((10, 2))
        path = tmp_path / "pts.csv"
        save_points(path, pts)
        np.testing.assert_allclose(load_points(path), pts, rtol=1e-6)

    def test_tsv_roundtrip(self, tmp_path, rng):
        pts = rng.random((5, 4))
        path = tmp_path / "pts.tsv"
        save_points(path, pts)
        np.testing.assert_allclose(load_points(path), pts, rtol=1e-6)

    def test_single_column_text(self, tmp_path):
        path = tmp_path / "col.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        assert load_points(path).shape == (3, 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_points(tmp_path / "nope.npy")

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.empty((0, 2)))
        with pytest.raises(ValueError, match="point array"):
            load_points(path)


class TestCLI:
    def test_datasets_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "3DSRN" in out and "MPAGD1B3D" in out

    def test_run_on_registry_dataset(self, capsys):
        code = main(["run", "--dataset", "3DSRN", "--scale", "0.1", "--algo", "mu"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mu_dbscan" in out and "queries" in out

    def test_run_on_input_file(self, tmp_path, rng, capsys):
        path = tmp_path / "pts.npy"
        save_points(path, rng.random((80, 2)))
        code = main(
            ["run", "--input", str(path), "--eps", "0.2", "--min-pts", "4",
             "--algo", "brute"]
        )
        assert code == 0
        assert "brute_dbscan" in capsys.readouterr().out

    def test_run_input_requires_params(self, tmp_path, rng):
        path = tmp_path / "pts.npy"
        save_points(path, rng.random((10, 2)))
        with pytest.raises(SystemExit):
            main(["run", "--input", str(path)])

    def test_run_requires_some_workload(self):
        with pytest.raises(SystemExit):
            main(["run"])

    @pytest.mark.parametrize("command", ["run", "fit"])
    @pytest.mark.parametrize(
        "flag", [["--engine", "sampled"], ["--sample-fraction", "0.4"]]
    )
    def test_engine_flags_are_gone(self, tmp_path, capsys, command, flag):
        argv = [command, "--dataset", "3DSRN", "--scale", "0.04", *flag]
        if command == "fit":
            argv += ["--save", str(tmp_path / "m.mudb")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "m.mudb").exists()

    @pytest.mark.parametrize(
        "command", ["run", "compare", "distributed", "fit", "stream"]
    )
    @pytest.mark.parametrize(
        "flag",
        [["--builder", "grid"], ["--builder-block-size", "64"],
         ["--no-batch-queries"], ["--block-size", "64"]],
    )
    def test_fit_path_flags_are_gone(self, tmp_path, capsys, command, flag):
        argv = [command, "--dataset", "3DSRN", "--scale", "0.04", *flag]
        if command == "fit":
            argv += ["--save", str(tmp_path / "m.mudb")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "m.mudb").exists()

    @pytest.mark.parametrize("command", ["predict", "serve"])
    def test_serving_block_size_stays(self, command):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [command, "--model", "m.mudb", "--block-size", "8"]
            + (["--input", "q.npy"] if command == "predict" else [])
        )
        assert args.block_size == 8

    def test_compare_exact_returns_zero(self):
        assert main(["compare", "--dataset", "3DSRN", "--scale", "0.1"]) == 0

    def test_distributed_runs(self, capsys):
        code = main(
            ["distributed", "--dataset", "3DSRN", "--scale", "0.1",
             "--ranks", "2", "--algo", "mu-d"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mu_dbscan_d" in out and "as-if-parallel" in out

    def test_eps_override(self, capsys):
        assert main(
            ["run", "--dataset", "3DSRN", "--scale", "0.1", "--eps", "0.2",
             "--min-pts", "3"]
        ) == 0
        assert "eps=0.2" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("mudbscan ")
        assert out.split()[1][0].isdigit()  # "mudbscan <semver>"

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 2
        assert "explode" in capsys.readouterr().err

    def test_no_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestServingCLI:
    def test_fit_save_predict_round_trip(self, tmp_path, rng, capsys):
        pts = rng.random((120, 2))
        pts_path = tmp_path / "pts.npy"
        save_points(pts_path, pts)
        model_path = tmp_path / "model.mudb"
        code = main(
            ["fit", "--input", str(pts_path), "--eps", "0.15", "--min-pts", "4",
             "--save", str(model_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saved model artifact" in out and model_path.exists()

        queries_path = tmp_path / "q.npy"
        save_points(queries_path, pts[:6])
        code = main(
            ["predict", "--model", str(model_path), "--input", str(queries_path)]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "would_be_core" in table and "n_nbrs" in table

    def test_predict_json_output(self, tmp_path, rng, capsys):
        import json as json_mod

        pts = rng.random((80, 2))
        pts_path = tmp_path / "pts.npy"
        save_points(pts_path, pts)
        model_path = tmp_path / "m.mudb"
        assert main(
            ["fit", "--input", str(pts_path), "--eps", "0.2", "--min-pts", "4",
             "--save", str(model_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["predict", "--model", str(model_path), "--input", str(pts_path),
             "--json"]
        ) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert set(payload) == {
            "labels", "would_be_core", "nearest_core",
            "nearest_core_dist", "n_neighbors",
        }
        assert len(payload["labels"]) == 80

    def test_fit_registry_dataset(self, tmp_path, capsys):
        model_path = tmp_path / "m.mudb"
        assert main(
            ["fit", "--dataset", "3DSRN", "--scale", "0.1",
             "--save", str(model_path)]
        ) == 0
        assert model_path.exists()

    def test_predict_missing_model(self, tmp_path, rng):
        queries_path = tmp_path / "q.npy"
        save_points(queries_path, rng.random((4, 2)))
        with pytest.raises(FileNotFoundError):
            main(["predict", "--model", str(tmp_path / "nope.mudb"),
                  "--input", str(queries_path)])
