"""The package's public names, its proof records, the layers an import or a command loads, and
the benchmark's tests."""

import copy
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import surd_sails
from surd_sails.arith import QuadraticSurd, UnimodularMatrix
from surd_sails.cfrac import PeriodicCF
from surd_sails.criterion import classify
from surd_sails.errors import InvalidPeriod
from surd_sails.geometry import QuadraticForm
from surd_sails.symmetry import Center, CenterKind, CyclicWord, shape_decompose

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

    @pytest.mark.parametrize("argv", [
        ["classify", "sqrt(7)"],
        ["sail", "sqrt(7)"],
        ["auto", "1", "0", "-7"],
        ["survey", "--dmax", "30"],
    ])
    def test_records_load_no_dataclasses(self, argv):
        # the records are NamedTuples, so no command pays for dataclasses and inspect
        loaded = modules_loaded_by(f"from surd_sails.cli import main\nmain({argv!r})")
        assert "surd_sails.criterion" in loaded or "surd_sails.geometry" in loaded
        assert not loaded & {"dataclasses", "inspect"}


class TestRecords:
    """The six proof records, the matrix and the continued fraction keep their repr, equality
    and hash, and are immutable."""

    def records(self):
        word = CyclicWord([1, 2, 2])
        result = classify(QuadraticSurd(0, 1, 1, 7))
        witness = result.witnesses["a"]
        return {
            "Center": (Center(CenterKind.GAP, 3), "Center(kind=<CenterKind.GAP: 'gap'>, position=3)"),
            "CyclicWord": (word, "CyclicWord(letters=(1, 2, 2))"),
            "ShapeDecomposition": (shape_decompose(CyclicWord([1, 2, 1, 4])),
                                   "ShapeDecomposition(regular_rotation=None, even_extra=0, odd_extra=None)"),
            "QuadraticForm": (QuadraticForm(1, 0, -7), "QuadraticForm(a=1, b=0, c=-7)"),
            "Witness": (witness, "Witness(omega=QuadraticSurd(0, 1, 1, 7), "
                                 "certificate=UnimodularMatrix(1, 0, 0, -1), "
                                 "period_map=UnimodularMatrix(127, 48, 336, 127))"),
            "Classification": (result, f"Classification(surd=QuadraticSurd(0, 1, 1, 7), "
                                       f"cf=PeriodicCF([2], [1, 1, 1, 4]), centers={result.centers!r}, "
                                       f"flags={result.flags!r}, witnesses={result.witnesses!r})"),
            "UnimodularMatrix": (witness.certificate, "UnimodularMatrix(1, 0, 0, -1)"),
            "PeriodicCF": (result.cf, "PeriodicCF([2], [1, 1, 1, 4])"),
        }

    def test_repr(self):
        for name, (record, text) in self.records().items():
            assert type(record).__name__ == name
            assert repr(record) == text

    def test_equal_records_are_equal_and_hash_alike(self):
        for name, (record, _) in self.records().items():
            twin = type(record)(*(getattr(record, f) for f in record._fields))
            assert twin == record and not twin != record, name
            if name != "Classification":  # its witnesses are a dict
                assert hash(twin) == hash(record), name
        assert Center(CenterKind.GAP, 3) != Center(CenterKind.GAP, 4)
        assert CyclicWord([1, 2]) != CyclicWord([2, 1])
        assert QuadraticForm(1, 0, -7) != QuadraticForm(1, 0, -3)
        assert UnimodularMatrix(1, 0, 0, 1) != UnimodularMatrix(1, 1, 0, 1)
        assert PeriodicCF((), (1, 2)) != PeriodicCF((1,), (2,))

    def test_fields_cannot_be_assigned(self):
        for name, (record, _) in self.records().items():
            for field in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, 1)
            with pytest.raises(AttributeError):
                record.extra = 1  # no __dict__ to grow

    def test_copies_are_equal(self):
        for name, (record, _) in self.records().items():
            assert copy.copy(record) == record, name
            assert copy.deepcopy(record) == record, name
            assert pickle.loads(pickle.dumps(record)) == record, name
            assert record._replace() == record, name

    def test_cyclic_word_checks_its_letters(self):
        word = CyclicWord([1, 2, 2])
        assert len(word) == 3 and word.letters == (1, 2, 2) and word.rotated(1) == (2, 2, 1)
        assert word._replace(letters=[2, 1]) == CyclicWord((2, 1))
        for bad in ([], [0, 1], [1, 1], [1, 2, 1, 2]):
            with pytest.raises(InvalidPeriod):
                CyclicWord(bad)
            with pytest.raises(InvalidPeriod):
                word._replace(letters=bad)

    def test_matrix_and_continued_fraction_copies_are_checked(self):
        m, cf = UnimodularMatrix(1, 0, 0, 1), PeriodicCF((), (1, 2))
        assert m._replace(q=7) == UnimodularMatrix(1, 7, 0, 1)
        assert cf._replace(preperiod=(3,)) == PeriodicCF((3,), (1, 2))
        with pytest.raises(ValueError, match=r"^determinant 2 is not \+-1$"):
            m._replace(p=2)
        with pytest.raises(InvalidPeriod, match=r"is a power of a shorter word$"):
            cf._replace(period=(1, 1))
        with pytest.raises(InvalidPeriod, match=r"is not minimal against period"):
            cf._replace(preperiod=(2,))

    def test_quadratic_form_checks_its_discriminant(self):
        form = QuadraticForm(1, 0, -7)
        assert form._replace(c=-3) == QuadraticForm(1, 0, -3)
        for build in (QuadraticForm, form._replace):
            with pytest.raises(ValueError, match=r"^form must be indefinite \(positive discriminant\)$"):
                build(a=1, b=0, c=1)
            with pytest.raises(ValueError, match=r"^discriminant 4 = 2\^2 is a perfect square$"):
                build(a=1, b=0, c=-4)


class TestBenchmark:
    def test_bench_unittests_pass(self):
        # the benchmark's own tests include its independent oracle's checks of every
        # workload's outputs, so a change those checks would refuse fails here first
        done = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", "bench", "-t", "bench"],
                              cwd=Path(__file__).resolve().parents[1], env=src_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr[-3000:]
