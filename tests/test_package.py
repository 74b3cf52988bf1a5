"""The package's public names, the layers an import or a command loads, and the benchmark's tests."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import surd_sails

from conftest import src_env

# the public names and their defining submodules, as exported before the
# package loaded its submodules lazily
PUBLIC = {
    "arith": ("QuadraticSurd", "Rational", "UnimodularMatrix", "mobius", "sqrt_of",
              "squarefree_split", "surd"),
    "cfrac": ("Convergent", "PeriodicCF", "complete_quotient_cycle", "convergents", "expand",
              "galois_reverse", "serret_equivalent", "serret_matrix", "value"),
    "criterion": ("Classification", "Witness", "classify", "iter_reduced_surds", "shape_oracle",
                  "sqrt_shape_check", "unit_period_check", "witness"),
    "geometry": ("LatticePoint", "QuadraticForm", "Sail", "SproutEdgePair", "edge_sprout_bijection",
                 "emit_svg", "fixed_line_surds", "integer_angle", "integer_length",
                 "korkina_construct", "lagrange_automorphism", "sail_from_surd", "sprout"),
    "symmetry": ("Center", "CenterKind", "CyclicWord", "ShapeDecomposition", "canonical_rotation",
                 "centers", "centers_record", "is_cyclic_palindrome", "is_regular_palindrome",
                 "shape_decompose"),
}


def modules_loaded_by(code: str) -> set[str]:
    """Modules a fresh interpreter holds after running code, beyond those it starts with."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=src_env(), capture_output=True,
                          text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


class TestPublicNames:
    def test_all_is_unchanged(self):
        assert surd_sails.__all__ == sorted(name for names in PUBLIC.values() for name in names)
        assert len(surd_sails.__all__) == 47

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from surd_sails import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == surd_sails.__all__

    def test_dir_lists_every_public_name(self):
        assert set(surd_sails.__all__) <= set(dir(surd_sails))

    def test_names_resolve_to_their_submodule_objects(self):
        for module, names in PUBLIC.items():
            sub = importlib.import_module(f"surd_sails.{module}")
            for name in names:
                assert getattr(surd_sails, name) is getattr(sub, name), name

    def test_unknown_name(self):
        with pytest.raises(AttributeError):
            surd_sails.nope  # noqa: B018
        assert not hasattr(surd_sails, "nope")


class TestImportSet:
    LATER_LAYERS = {"surd_sails.symmetry", "surd_sails.criterion", "surd_sails.geometry"}

    def test_cli_loads_only_arith_and_cfrac(self):
        loaded = modules_loaded_by("import surd_sails.cli")
        assert {"surd_sails.arith", "surd_sails.cfrac", "surd_sails.errors"} <= loaded
        assert not loaded & (self.LATER_LAYERS | {"dataclasses", "tempfile"})

    def test_classify_loads_criterion_not_geometry(self):
        loaded = modules_loaded_by(
            "from surd_sails.cli import main\nmain(['classify', 'sqrt(7)'])"
        )
        assert {"surd_sails.criterion", "surd_sails.symmetry"} <= loaded
        assert "surd_sails.geometry" not in loaded


class TestBenchmark:
    def test_bench_unittests_pass(self):
        # the benchmark's own tests include its independent oracle's checks of every
        # workload's outputs, so a change those checks would refuse fails here first
        done = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", "bench", "-t", "bench"],
                              cwd=Path(__file__).resolve().parents[1], env=src_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr[-3000:]
