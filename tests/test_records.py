"""Every frozen record of the package behaves as a frozen dataclass would."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from parity_scope.config import derive_scenario, preset
from parity_scope.dispersive import (
    LinePlacement,
    QubitCavityCoupling,
    TcqSpec,
    TransmonSpec,
    capacitance_inverse,
    tcq_mixing,
    tcq_state_shifts,
)
from parity_scope.dynamics import Trajectory
from parity_scope.inference import InfoGainReport, SignalModel
from parity_scope.records import Record, replace
from parity_scope.spectral import (
    ChargeBasisConfig,
    ChiOracleReport,
    DressedCheckReport,
    LadderConfig,
)

def _examples():
    """One valid record of every Record subclass, keyed by class name."""
    config = preset("paper-sec5-symmetric")
    report = derive_scenario(config)
    setup = report.measurement_setup()
    qubit = report.qubits[0]
    dressed = tcq_mixing(TcqSpec(6.4, 6.4, -1.2, -1.2, -0.4))
    grid = np.linspace(0.0, 1.0, 3)
    records = [
        config, config.pulse, config.analysis, config.analysis.sweep, config.validation,
        report, qubit, qubit.model, qubit.purcell, report.detunings, setup, setup.pulse,
        TcqSpec(6.4, 6.4, -1.2, -1.2, -0.4), dressed, TransmonSpec(20.0, 0.3),
        QubitCavityCoupling(0.1, 0.1, -1.0, -1.1),
        tcq_state_shifts(dressed, (7.5, 7.4), (0.15, 0.0, 0.12, 0.0)),
        LinePlacement(1.0, 0.3, 1e-15, 65e-15, 1.6e-10, 2, 8, 1.2e8),
        capacitance_inverse([1e-3, 2e-3], 1.0, 1.0),
        Trajectory(grid, grid + 1j, grid - 1j, grid * 0.5, grid * 2j, 2, 0.5),
        SignalModel(1.0, 0.25, (0.1, 0.2, 0.3, 0.4)),
        InfoGainReport(1.0, 0.5, 1.5, 0.75, tau_grid=grid, info_parity_series=grid / 2),
        ChargeBasisConfig(1.0, 1.1, 20.0, 22.0, 0.1, offset_plus=0.25),
        LadderConfig("tcq", dressed=dressed, resonator1_frequency=7.5,
                     resonator2_frequency=7.4, couplings=(0.1, 0.0, 0.1, 0.0)),
        DressedCheckReport({"chi": 1.0}, {"chi": 1.1}, {"chi": 0.1}, 0.99),
        ChiOracleReport(1.0, 2.0, 1.1, 2.1),
    ]
    return {type(record).__name__: record for record in records}


EXAMPLES = _examples()


def _record_classes():
    return [cls for cls in Record.__subclasses__() if cls.__module__.startswith("parity_scope.")]


def _unhashable(record):
    try:
        hash(record._values())
    except TypeError:
        return True
    return False


def _same(a, b):
    """Field-by-field equality that compares arrays by value."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a._values(), b._values()))


def _twin_class(cls):
    """A frozen dataclass with the record class's name, fields and defaults."""
    return dataclasses.make_dataclass(cls.__name__, [
        (field, object, dataclasses.field(default=cls._defaults[field]))
        if field in cls._defaults else field for field in cls._fields], frozen=True)


def _twin(record):
    return _twin_class(type(record))(*record._values())


def test_every_record_class_has_an_example():
    assert sorted(cls.__name__ for cls in _record_classes()) == sorted(EXAMPLES)
    assert len(EXAMPLES) == 26


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_records_refuse_assignment_and_deletion(name):
    record = EXAMPLES[name]
    before = record._values()
    for field in (*record._fields, "unlisted"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record._values() == before and "unlisted" not in vars(record)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_records_compare_and_hash_by_class_and_fields(name):
    record = EXAMPLES[name]
    twin = _twin(record)
    fresh = type(record)(*record._values())
    assert record == fresh and record is not fresh
    assert record != twin and twin != record
    try:
        expected = hash(twin)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(fresh) == expected
    for field in record._fields:
        # a marker in place of one field; every other field is the same object
        one, again, other = (copy.copy(record) for _ in range(3))
        one.__dict__[field] = again.__dict__[field] = marker = object()
        other.__dict__[field] = object()
        assert one == again and marker is again.__dict__[field]
        assert one != other and other != one
        if not _unhashable(one):
            assert hash(one) == hash(again) != hash(other)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_records_print_as_dataclasses(name):
    record = EXAMPLES[name]
    assert repr(record) == repr(_twin(record))


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_replace_builds_and_checks_a_new_record(name, monkeypatch):
    record = EXAMPLES[name]
    cls = type(record)
    checks = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: checks.append(self))
    first, *_, last = record._fields
    values = dict(zip(record._fields, record._values()))
    for changes in ({}, {first: values[last]}, {first: None, last: 1.5}):
        checks.clear()
        new = replace(record, **changes)
        assert checks == [new]
        assert _same(new, cls(**{**values, **changes}))
    with pytest.raises(TypeError):
        replace(record, unlisted=1.0)


def test_replace_reruns_the_validators():
    pulse = EXAMPLES["DrivePulse"]
    with pytest.raises(ValueError):
        replace(pulse, ramp=-1.0)
    with pytest.raises(ValueError):
        replace(EXAMPLES["LadderConfig"], kind="cavity")


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_records_bind_arguments_as_dataclasses(name, monkeypatch):
    record = EXAMPLES[name]
    cls, fields, values = type(record), tuple(record._fields), record._values()
    twin = _twin_class(cls)
    split = len(fields) // 2
    for args, kwargs in ((values, {}), ((), dict(zip(fields, values))),
                         (values[:split], dict(zip(fields[split:], values[split:])))):
        assert _same(cls(*args, **kwargs), record)
        assert repr(cls(*args, **kwargs)) == repr(twin(*args, **kwargs))
    monkeypatch.setattr(cls, "__post_init__", lambda self: None)
    required = {field: getattr(record, field) for field in fields if field not in cls._defaults}
    bare = cls(**required)
    assert repr(bare) == repr(twin(**required))
    for field, default in cls._defaults.items():
        assert getattr(bare, field) is default
    for args, kwargs in (
            ((), {}),                                           # missing
            ((), {fields[-1]: values[-1]}),                     # missing the first
            (values, {"unlisted": 1.0}),                        # unknown
            (values, {fields[0]: values[0]}),                   # repeated
            ((*values, 1.0), {})):                              # too many
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_records_survive_pickle(name):
    record = EXAMPLES[name]
    back = pickle.loads(pickle.dumps(record))
    assert back is not record and _same(back, record)
    with pytest.raises(AttributeError):
        setattr(back, next(iter(record._fields)), 1.0)
