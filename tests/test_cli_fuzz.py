"""Exit-code contract under malformed input: mutated documents run through
``verify``, ``report`` and ``distance``, and mutated relation files through
``distance --relation``, must exit 0, 1 or 2, never raise."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metricflow.cli import main

# replacement values: type swaps, NaN strings and literals, huge numbers
ODD_VALUES = st.sampled_from([
    None, True, "", "NaN", "nan", "inf", "-Infinity", "1.0", "x",
    float("nan"), float("inf"), -float("inf"), 0, -1, 1e308, -1e308, 1e-320,
    10**400, -(10**400), 2**63, [], [[]], [1.0], {}, {"a": 1},
]).map(copy.deepcopy)  # a fresh copy, so later mutations never alias it


@pytest.fixture(scope="module")
def base_docs(tmp_path_factory):
    """A 3-time two-point document and a 3-time static 3-cycle document."""
    work = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for kind, extra in (("two-point", []), ("static", ["--m", "3"])):
        path = work / f"{kind}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["generate", kind, "--steps", "2", *extra, "--out", str(path)]) == 0
        docs[kind] = (str(path), json.loads(path.read_text()))
    return work, docs


def _containers(node, path=()):
    """Every dict or list in the document, with its path."""
    if isinstance(node, (dict, list)):
        yield path, node
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _containers(child, path + (key,))


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        _, node = draw(st.sampled_from(list(_containers(doc))))
        keys = list(node.keys()) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["replace", "delete", "append", "duplicate"]))
        if not keys or op == "append":  # ragged: one extra entry
            value = draw(ODD_VALUES)
            if isinstance(node, dict):
                node[draw(st.sampled_from(["extra", "times", "kernels", "0:2"]))] = value
            else:
                node.append(value)
            continue
        key = draw(st.sampled_from(keys))
        if op == "replace":
            node[key] = draw(ODD_VALUES)
        elif op == "delete":  # missing key, or a ragged list
            del node[key]
        else:
            node[key] = copy.deepcopy(node[draw(st.sampled_from(keys))])
    return doc


@settings(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(base_docs, data):
    work, docs = base_docs
    kind = data.draw(st.sampled_from(sorted(docs)))
    base_path, base = docs[kind]
    doc = data.draw(mutated(base))
    bad = work / "bad.json"
    bad.write_text(json.dumps(doc))
    commands = [
        ["verify", str(bad)],
        ["report", str(bad), "--quantity", "var-curve", "--csv", str(work / "o.csv")],
        ["distance", base_path, str(bad)],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        assert rc in (0, 1, 2), argv


# valid relations for two 2-point, 3-time flows: one for every time, and one per time
RELATIONS = (
    {"pairs": [[0, 0], [1, 1]]},
    {"per_time": {"0": [[0, 1], [1, 0]], "1": [[0, 0], [1, 1]], "2": [[0, 1], [1, 0]]}},
)
HUGE_INTS = st.sampled_from([2**63, -(2**63) - 1, 10**18, 10**400, -(10**400)])
NON_INTEGER_KEYS = st.sampled_from(["x", "", "1.5", "1e0", "0x1", "-1", " 2 ", "99", "pairs"])


@st.composite
def mutated_relation(draw):
    """A valid relation with one to three mutations: a value swapped for an
    odd one, a huge integer or a bool, a value nested one level deeper, or
    an object key renamed to one that is not a grid index. The document sits
    in a one-element box, so the top level can be swapped or nested too."""
    box = [copy.deepcopy(draw(st.sampled_from(RELATIONS)))]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["odd", "huge", "bool", "nest", "rekey"]))
        nodes = [node for _, node in _containers(box) if op != "rekey" or isinstance(node, dict)]
        nodes.reverse()  # the innermost first: derandomized draws favour the first
        if not nodes:  # no object left to rekey
            continue
        node = draw(st.sampled_from(nodes))
        keys = list(node.keys()) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            continue
        key = draw(st.sampled_from(keys))
        if op == "odd":
            node[key] = draw(ODD_VALUES)
        elif op == "huge":
            node[key] = draw(HUGE_INTS)
        elif op == "bool":
            node[key] = draw(st.booleans())
        elif op == "nest":
            node[key] = draw(st.sampled_from([[node[key]], {"pairs": node[key]}]))
        else:
            node[draw(NON_INTEGER_KEYS)] = node.pop(key)
    return box[0]


@settings(
    max_examples=300, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(relation=mutated_relation())
def test_mutated_relation_files_keep_the_exit_code_contract(base_docs, relation):
    work, docs = base_docs
    flow_path = docs["two-point"][0]
    bad = work / "relation.json"
    bad.write_text(json.dumps(relation))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["distance", flow_path, flow_path, "--relation", str(bad)])
    assert rc in (0, 1, 2), relation
