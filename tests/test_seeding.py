import numpy as np
import pytest

from detlab import seeding
from detlab.cli import main as cli_main
from detlab.seeding import derive_seed, generators

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


def draws(rng: np.random.Generator) -> list[np.ndarray]:
    """One of each kind of draw detlab makes, in a fixed order."""
    pool = np.arange(40) * 3
    return [rng.random(5), rng.normal(0.0, 1.0, size=(2, 4)), rng.integers(1, 4, size=6),
            np.array(rng.integers(0, 2**63)), rng.choice(pool, 7, replace=False)]


class TestGenerators:
    def test_every_stream_equals_default_rng(self):
        seeds = EDGE_SEEDS + [derive_seed("stream", i) for i in range(2000)]
        for seed, rng in zip(seeds, generators(seeds), strict=True):
            want = np.random.default_rng(seed)
            assert rng.bit_generator.state == want.bit_generator.state, seed
            for got, expected in zip(draws(rng), draws(want), strict=True):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), seed

    @pytest.mark.parametrize("bad", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_is_named(self, bad):
        with pytest.raises(ValueError, match=f"seed {bad} "):
            list(generators([5, bad, 6]))

    def test_no_seeds_yield_nothing(self):
        assert list(generators([])) == []

    def test_every_yield_is_one_generator_valid_until_the_next(self):
        it = generators([11, 12])
        first = next(it)
        kept = first.bit_generator.state
        second = next(it)
        assert second is first
        assert first.bit_generator.state != kept  # re-seeded in place for seed 12
        assert first.bit_generator.state == np.random.default_rng(12).bit_generator.state


class TestKernelCheck:
    """The first call in a process compares the kernel with numpy's seeding."""

    def broken(self, monkeypatch):
        monkeypatch.setattr(seeding, "PCG64_MULT", seeding.PCG64_MULT + 2)
        monkeypatch.setattr(seeding, "_checked", False)

    def test_mismatch_names_numpy_version(self, monkeypatch):
        self.broken(monkeypatch)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__} seeds default_rng "
                                               "differently"):
            next(generators([1]))

    def test_check_runs_once(self, monkeypatch):
        monkeypatch.setattr(seeding, "_checked", False)
        list(generators([1]))
        assert seeding._checked
        monkeypatch.setattr(seeding, "PCG64_MULT", seeding.PCG64_MULT + 2)
        list(generators([1]))  # no second comparison, so no error

    def test_gen_data_exits_2(self, monkeypatch, tmp_path, capsys):
        self.broken(monkeypatch)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[train]\nsteps = 4\ntrain_scenes = 3\n"
                       "[eval]\nscenes = 3\n[run]\nseed = 1\n")
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert f"numpy {np.__version__} seeds default_rng differently" in capsys.readouterr().err
        assert not list((tmp_path / "d").glob("dataset_*"))
