import ast
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import latcover
from latcover import BinaryForm, Catalog, CatalogEntry, RatMat2, Subgroup
from latcover.catalog import LENGTH3_ENTRY, CheckResult, entry_from_texts
from latcover.forms import CompareReport, ValueWitness, cross_value_check
from latcover.groebner import Verdict
from latcover.modular import ScanReport, run_all_scans, scan_lifted_classes
from latcover.value import Value


def test_every_exported_name_resolves():
    assert len(set(latcover.__all__)) == len(latcover.__all__)
    for name in latcover.__all__:
        assert hasattr(latcover, name), name
    namespace = {}
    exec("from latcover import *", namespace)
    assert set(latcover.__all__) <= namespace.keys()


def test_package_imports_only_the_standard_library():
    # Relative imports (level > 0) stay inside the package; every
    # absolute one must name a standard-library module.
    sources = sorted(Path(latcover.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)


@pytest.mark.parametrize("module", ["latcover", "latcover.cli"])
def test_cold_import_leaves_out_dataclasses_and_inspect(module):
    # pytest has loaded all of these itself, so only a fresh interpreter
    # shows what the import adds.
    code = (
        "import sys; before = set(sys.modules); import " + module + "; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(latcover.__file__).parents[1])}
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert module in added
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(added)
    # The verify-all claims load with the CLI, not with the package.
    assert ("latcover.claims" in added) == (module == "latcover.cli")


@pytest.mark.parametrize("value, fields, other, text", [
    (Subgroup(((2, 0), (1, 2))), (((2, 0), (1, 2)),), Subgroup(((2, 0), (0, 1))),
     "Subgroup((2, 0), (1, 2))"),
    (RatMat2.of(1, "1/2", 0, -3), (1, Fraction(1, 2), 0, -3), RatMat2.of(1, 0, 0, -3),
     "RatMat2(a=Fraction(1, 1), b=Fraction(1, 2), c=Fraction(0, 1), d=Fraction(-3, 1))"),
    (BinaryForm.of(0, 1, 1, 0), ((0, 1, 1, 0),), BinaryForm.of(0, 1, 2, 0),
     "BinaryForm(coeffs=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), Fraction(0, 1)))"),
    (entry_from_texts(LENGTH3_ENTRY), (entry_from_texts(LENGTH3_ENTRY).lattices,),
     entry_from_texts(("1,0;0,2", "2,0;0,1", "1,0;1,4", "1,0;3,4")), None),
], ids=["Subgroup", "RatMat2", "BinaryForm", "CatalogEntry"])
def test_value_type_contract(value, fields, other, text):
    cls = type(value)
    # The contract comes from Value alone; the class declares only its
    # fields and its own methods.
    assert issubclass(cls, Value)
    assert not {"__eq__", "__hash__", "__setattr__", "__delattr__", "__reduce__"} & vars(cls).keys()
    same = cls(*fields)
    assert value == same and not value != same
    assert value != other
    # Equal only to the same class: never to the field tuple, even for
    # a single field, nor to a lone field.
    assert value != fields and fields != value and value != fields[0]
    assert value.__eq__(fields) is NotImplemented
    assert hash(value) == hash(same) == hash(fields)
    # Another value type holding the same fields hashes alike but is
    # unequal: the shared base does not make value types interchangeable.
    for twin in (Subgroup, BinaryForm, CatalogEntry):
        if twin is not cls and len(twin.__slots__) == len(fields):
            assert value != twin(*fields) and hash(twin(*fields)) == hash(value)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is cls and again == value and hash(again) == hash(value)
    if text is not None:
        assert repr(value) == text


#: One record of each kind, as the package builds them: the report
#: records share the value types' contract.
RECORDS = [
    CheckResult("length3-entry", True, ""),
    Catalog([entry_from_texts(LENGTH3_ENTRY)]),
    scan_lifted_classes((0, 1, 0, 1)),
    Verdict(("R", "S"), True, True, None),
    ValueWitness(-12, (-3, -1)),
    cross_value_check(BinaryForm.of(0, 1, 1, 0), BinaryForm.of(0, 1, 3, 0), 2, 3),
]


def test_every_value_type_is_listed():
    records = {type(r) for r in RECORDS}
    assert records == {CheckResult, Catalog, ScanReport, Verdict, ValueWitness, CompareReport}
    assert set(Value.__subclasses__()) == records | {Subgroup, RatMat2, BinaryForm, CatalogEntry}
    # Value's constructor and JSON encoder are the only ones: no value
    # type or record has its own.
    assert not [c for c in Value.__subclasses__() if "__init__" in vars(c)]
    assert not [c for c in Value.__subclasses__() if "to_dict" in vars(c)]


def _leaves(data):
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, list):
        for item in data:
            yield from _leaves(item)
    else:
        yield data


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_to_dict_is_plain_json(record):
    d = record.to_dict()
    # Plain data: the JSON round trip gives it back equal, as it would
    # not with a tuple left in, and a None field is left out, not null.
    assert json.loads(json.dumps(d)) == d
    assert None not in _leaves(d)
    fields = {name for name in type(record).__slots__ if getattr(record, name) is not None}
    assert d.keys() == fields | ({"ok"} if hasattr(record, "ok") else set())


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_contract(record):
    cls = type(record)
    # Built whole by Value's one constructor: no record defines its own.
    assert issubclass(cls, Value) and "__init__" not in vars(cls)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert record == cls(*(getattr(record, name) for name in cls.__slots__))
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls and again == record


@pytest.mark.parametrize("cls", [Subgroup, RatMat2, BinaryForm, CatalogEntry]
                         + [type(r) for r in RECORDS], ids=lambda c: c.__name__)
def test_wrong_number_of_fields_is_a_type_error(cls):
    for count in (len(cls.__slots__) - 1, len(cls.__slots__) + 1):
        with pytest.raises(TypeError):
            cls(*[None] * count)


def test_records_compare_by_their_fields():
    assert run_all_scans() == run_all_scans()
