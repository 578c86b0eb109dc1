"""CLI backend-selection flags: parsing and end-to-end threading."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io import load_dataset
from repro.linalg.backends import sparse_mna
from repro.scenarios import LIBRARY_VERSION
from repro.schemas import SCENARIO_SCHEMA

sparse_available = sparse_mna.is_available()


class TestParsing:
    def test_mna_backend_on_generate(self):
        args = build_parser().parse_args(
            ["generate", "opamp", "out.npz", "--mna-backend", "sparse"]
        )
        assert args.mna_backend == "sparse"

    def test_rejects_unknown_backend_names(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--linalg-backend", "numpy", "list-estimators"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "adc", "out.npz", "--mna-backend", "numba"]
            )


class TestEndToEnd:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "opamp", "out.npz", "--samples", "8"],
            ["scenarios", "compile", "doc.json", "--no-cache"],
        ],
        ids=["generate", "scenarios-compile"],
    )
    def test_sparse_without_scipy_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        doc = {
            "schema": SCENARIO_SCHEMA,
            "library": LIBRARY_VERSION,
            "scenarios": [{"name": "one", "circuit": "ota", "knobs": {"samples": 8}}],
        }
        (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.setattr(sparse_mna, "is_available", lambda: False)
        monkeypatch.setenv("REPRO_DATASET_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--mna-backend", "sparse"]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "scipy" in err

    @pytest.mark.skipif(not sparse_available, reason="scipy not importable")
    def test_generate_opamp_sparse_matches_default(self, tmp_path, monkeypatch):
        a = tmp_path / "default.npz"
        b = tmp_path / "sparse.npz"
        # separate cache dirs: the backend is deliberately not part of the
        # dataset cache key, so a shared cache would serve run 1's bank to
        # run 2 and never exercise the sparse path at all
        monkeypatch.setenv("REPRO_DATASET_CACHE_DIR", str(tmp_path / "cache_a"))
        main(["generate", "opamp", str(a), "--samples", "8", "--seed", "5"])
        monkeypatch.setenv("REPRO_DATASET_CACHE_DIR", str(tmp_path / "cache_b"))
        main(
            ["generate", "opamp", str(b), "--samples", "8", "--seed", "5",
             "--mna-backend", "sparse"]
        )
        bank_a = load_dataset(a)
        bank_b = load_dataset(b)
        np.testing.assert_allclose(bank_b.early, bank_a.early, rtol=1e-9)
        np.testing.assert_allclose(bank_b.late, bank_a.late, rtol=1e-9)
