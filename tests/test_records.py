"""The package's record types: constructor, immutability, equality, hash,
repr and pickling.

Each record takes its fields positionally or by keyword, in one fixed
order, and shows them as Name(field=value, ...).  Assigning to a record
raises AttributeError; CommandOutput alone is filled in after it is made.
Records compare by value, except the weight and spectrum holders, which
compare by identity, Graph, whose == and hash leave the weights out, and
the two reports, whose == and hash leave the graph out.  Validating
records reject bad fields with the same exception and message however
they are built, a pickle round trip included.
"""

import inspect
import math
import pickle
import re

import numpy as np
import pytest

from qdeco.channels import (
    ChannelFamily,
    ChannelMatrix,
    DephasingSplit,
    PauliChannel,
    QoChannel,
    QoSnapshot,
)
from qdeco.cli import CommandOutput
from qdeco.encode import BreakEven, CodeLevel
from qdeco.errors import CapacityError, ValidationError
from qdeco.ghz import GhzDiagonal
from qdeco.graphdiag import (
    FourierForm,
    GraphDiagonalState,
    PartitionScanEntry,
    PartitionScanReport,
    PtSpectrum,
)
from qdeco.graphs import Bipartition, Graph, make_lattice
from qdeco.isingsep import NoisyGateState, SeparabilityReport, WeightedSeparabilityReport
from qdeco.numeric import ThresholdResult, Tolerance
from qdeco.oracle import DenseState
from qdeco.pairdistill import BellDiagonal, EdgeThreshold, LowerBoundReport

REQUIRED = inspect.Parameter.empty
PATH = Graph(3, (0b010, 0b101, 0b010), {(0, 1): 1.0}, "path")
LINE = make_lattice("line", 2)
SPLIT = Bipartition(0b010, 3)
ENTRY = PartitionScanEntry(SPLIT, "threshold", 0.5, 0b011, 30)
EDGE = EdgeThreshold(0, 1, math.pi, 0.5, True, 30)
MATRIX = ChannelMatrix(np.eye(4) / 4)

# (class, parameters with their defaults, positional arguments of one
# record, (arguments, exception, message) it must reject or None)
RECORDS = [
    (Tolerance, {"abs_root": 1e-10}, (1e-8,),
     ((0.0,), ValidationError, "abs_root must be finite and positive, got 0.0")),
    (ThresholdResult,
     dict.fromkeys(["value", "bracket", "iterations", "sign_change_found"], REQUIRED),
     (0.5, (0.0, 1.0), 7, True), None),
    (PauliChannel, dict.fromkeys(["p0", "p1", "p2", "p3"], REQUIRED), (0.7, 0.1, 0.1, 0.1),
     ((0.5, 0.5, 0.5, 0.5), ValidationError, "probabilities sum to 2.0, not 1")),
    (QoChannel, dict.fromkeys("BCs", REQUIRED), (1.0, 1.0, 0.5),
     ((1.0, 0.4, 0.5), ValidationError, "need 2C >= B and C finite, got C=0.4")),
    (QoSnapshot,
     dict.fromkeys(["lambda0", "lambda1", "lambda2", "lambda3", "mu", "a", "b", "c"], REQUIRED),
     (0.5, 0.1, 0.1, 0.3, 0.0, 1.0, 0.5, 1.0), None),
    (DephasingSplit, dict.fromkeys(["p_z", "residual", "feasible"], REQUIRED),
     (0.5, MATRIX, True), None),
    (ChannelFamily, {"kind": REQUIRED, "params": ()}, ("qo", (("B", 1.0), ("C", 1.0), ("s", 0.5))),
     None),
    (GhzDiagonal, dict.fromkeys(["n", "lam", "mu", "symmetric"], REQUIRED),
     (1, (0.5, 0.5), 0.25, True),
     ((1, (0.5, 0.5), 0.75, True), ValidationError, "|mu| exceeds 1/2")),
    (CodeLevel,
     dict.fromkeys(
         ["j", "q", "p", "kt_eff", "kt_eff_log10", "kt_approx", "kt_approx_log10", "ln_eps"],
         REQUIRED,
     ),
     (1, 0.9, 0.8, 0.2, -0.7, 0.3, -0.5, -2.3), None),
    (BreakEven, {"p": REQUIRED, "kt": REQUIRED}, (0.9, 0.1), None),
    (Graph, {"n": REQUIRED, "adj": REQUIRED, "weights": None, "name": ""},
     (3, (0b010, 0b101, 0b010), {(0, 1): 1.0}, "path"),
     ((2, (0b10, 0b00)), ValidationError, "adjacency not symmetric at (0,1)")),
    (Bipartition, {"a_mask": REQUIRED, "n": REQUIRED}, (0b010, 3),
     ((0b111, 3), ValidationError, "A must be a nonempty proper subset of the vertices")),
    (GraphDiagonalState, {"graph": REQUIRED, "lam": REQUIRED}, (LINE, [0.25, 0.25, 0.25, 0.25]),
     ((LINE, [0.5, 0.5, 0.5, -0.5]), ValidationError, "negative weight -0.5")),
    (PtSpectrum, dict.fromkeys(["lam_prime", "partition", "min_value"], REQUIRED),
     (np.array([0.5, 0.5, 0.0, 0.0]), Bipartition(0b10, 2), 0.0),
     ((np.zeros(4), Bipartition(0b10, 2), 0.0), ValidationError,
      "partial transpose must preserve the trace")),
    (FourierForm, dict.fromkeys(["n", "exponents", "cross", "parity"], REQUIRED),
     (2, np.arange(4), np.zeros(4, dtype=int), np.ones(4)), None),
    (PartitionScanEntry,
     dict.fromkeys(["partition", "status", "p_crit", "argmin_mask", "iterations"], REQUIRED),
     (SPLIT, "threshold", 0.5, 0b011, 30), None),
    (PartitionScanReport, dict.fromkeys(["graph", "entries", "first_ppt", "last_ppt"], REQUIRED),
     (PATH, (ENTRY,), ENTRY, ENTRY), None),
    (NoisyGateState, dict.fromkeys(["p_z", "q_z", "phi"], REQUIRED), (0.5, 0.5, math.pi),
     ((0.5, 0.5, 4.0), ValidationError, None)),
    (SeparabilityReport,
     dict.fromkeys(["per_edge", "p_threshold", "weak_bound", "critical_edge"], REQUIRED),
     (((0, 1, 0.4),), 0.4, 0.41, (0, 1)), None),
    (WeightedSeparabilityReport,
     {**dict.fromkeys(
         ["per_edge", "p_z_threshold", "critical_edge", "native_p", "applicable"], REQUIRED
     ), "note": ""},
     (((0, 1, math.pi, 0.4),), 0.4, (0, 1), 0.5, True, "dephasing"), None),
    (BellDiagonal, {"c": REQUIRED}, ((1.0, 0.0, 0.0, 0.0),),
     (((0.5, 0.5, 0.5, -0.5),), ValidationError, "negative weight -0.5")),
    (EdgeThreshold, dict.fromkeys(["u", "v", "phi", "p_crit", "found", "iterations"], REQUIRED),
     (0, 1, math.pi, 0.5, True, 30), None),
    (LowerBoundReport,
     {"graph": REQUIRED, "per_edge": (), "p_global": math.nan, "p_spanning": math.nan,
      "critical_edge": None, "bottleneck_edge": None},
     (PATH, (EDGE,), 0.5, 0.4, (0, 1), (1, 2)), None),
    (DenseState, {"n": REQUIRED, "rho": REQUIRED}, (1, np.eye(2) / 2),
     ((9, np.eye(512) / 512), CapacityError, "dense oracle capped at 8 qubits")),
    (CommandOutput, {"rows": [], "summary": {}, "warnings": []}, ([{"a": 1}], {"b": 2.0}, ["w"]),
     None),
]

IDENTITY = {GraphDiagonalState, PtSpectrum, FourierForm}
UNHASHABLE = {DenseState, CommandOutput}  # a field is an array or a list
# Classes whose == and hash leave one field out: its index and another
# value, then the index and another value of a field they compare.
LEFT_OUT = {
    Graph: (2, None, 3, "other"),
    PartitionScanReport: (0, LINE, 1, ()),
    LowerBoundReport: (0, LINE, 2, 0.6),
}


def fields(record, names):
    return [getattr(record, name) for name in names]


def assert_same_fields(a, b, names):
    for x, y in zip(fields(a, names), fields(b, names)):
        assert type(x) is type(y)
        assert pickle.dumps(x) == pickle.dumps(y)


@pytest.mark.parametrize(
    "cls, params, args, bad", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_record_semantics(cls, params, args, bad):
    names = list(params)
    assert list(inspect.signature(cls).parameters) == names
    record = cls(*args)
    assert_same_fields(cls(**dict(zip(names, args))), record, names)
    required = [arg for arg, default in zip(args, params.values()) if default is REQUIRED]
    short = cls(*required)
    for name, default in params.items():
        if default is not REQUIRED:
            assert repr(getattr(short, name)) == repr(default)

    expected = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(record, names)))
    assert repr(record) == f"{cls.__name__}({expected})"

    if cls is CommandOutput:
        record.summary = {"c": 3}  # handlers fill their output in
    else:
        for name in [*names, "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    twin = cls(*args)
    if cls in IDENTITY:
        assert record == record and record != twin and not record == twin
        assert hash(record) == object.__hash__(record)
    elif cls in UNHASHABLE:
        assert record == record
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert twin == record and not twin != record and hash(twin) == hash(record)
    if cls in LEFT_OUT:
        index, other, compared, value = LEFT_OUT[cls]
        changed = cls(*args[:index], other, *args[index + 1:])
        assert changed == record and not changed != record and hash(changed) == hash(record)
        changed = cls(*args[:compared], value, *args[compared + 1:])
        assert changed != record and not changed == record

    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls
    assert_same_fields(copy, record, names)
    if cls not in IDENTITY | UNHASHABLE | {DephasingSplit}:  # its residual compares by identity
        assert copy == record

    if bad is not None:
        bad_args, exc, message = bad
        match = None if message is None else re.escape(message)
        with pytest.raises(exc, match=match):
            cls(*bad_args)
        with pytest.raises(exc, match=match):
            cls(**dict(zip(names, bad_args)))


def test_coercing_records_convert_their_fields():
    bell = BellDiagonal([1, 0, 0, 0])
    assert bell.c == (1.0, 0.0, 0.0, 0.0) and all(type(x) is float for x in bell.c)
    state = GraphDiagonalState(LINE, [1, 0, 0, 0])
    assert isinstance(state.lam, np.ndarray) and state.lam.dtype == float
    assert pickle.loads(pickle.dumps(bell)) == bell
