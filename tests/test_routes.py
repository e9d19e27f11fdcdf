"""Every cross-checked number: one parametrized test per quantity of
``routes.QUANTITIES``, and a check that each row's reference is independent
of the library unless ``NO_INDEPENDENT_ROUTE`` says why not."""

from types import CodeType

import pytest
from hypothesis import given, settings
from hypothesis.strategies import SearchStrategy

import routes
from routes import NO_INDEPENDENT_ROUTE, QUANTITIES, SKIP


def compare(quantity, row, set_cap):
    """Compute the row's first route once per case and compare every other
    route with it at each of the case's settings; some route must reach the
    case."""
    table, inputs = QUANTITIES[quantity]
    rows = inputs[row]
    for name, limit in rows.caps.items():
        set_cap(name, limit)
    reference, *others = rows.routes or tuple(table)

    def check(args, case_settings):
        expected = table[reference].fn(*args, case_settings[0])
        reached = False
        for name in others:
            for setting in case_settings:
                value = table[name].fn(*args, setting)
                assert value is SKIP or value == expected, f"{name} at {setting} on {args}"
                reached |= value is not SKIP
        assert reached, f"every route but {reference} skipped {args}"
        return expected

    if isinstance(rows.cases, SearchStrategy):

        @settings(max_examples=rows.max_examples, deadline=None)
        @given(rows.cases)
        def check_drawn(case):
            assert rows.check([case], [check(*case)])

        check_drawn()
    else:
        cases = list(rows.cases())
        assert rows.check(cases, [check(*case) for case in cases])


def rows_of(quantity):
    return pytest.mark.parametrize("row", QUANTITIES[quantity].inputs)


@rows_of("ls-decision")
def test_ls_decision(row, set_cap):
    compare("ls-decision", row, set_cap)


@rows_of("ls-count")
def test_ls_witness_count(row, set_cap):
    compare("ls-count", row, set_cap)


@rows_of("permanent")
def test_permanent(row, set_cap):
    compare("permanent", row, set_cap)


@rows_of("f-counts")
def test_f_counts(row, set_cap):
    compare("f-counts", row, set_cap)


@rows_of("set-partition")
def test_set_partition_counts(row, set_cap):
    compare("set-partition", row, set_cap)


@rows_of("hcv")
def test_hcv_counts(row, set_cap):
    compare("hcv", row, set_cap)


@rows_of("cover-min")
def test_set_cover_minimum(row, set_cap):
    compare("cover-min", row, set_cap)


@rows_of("circuit-values")
def test_circuit_values(row, set_cap):
    compare("circuit-values", row, set_cap)


@rows_of("circuit-verdicts")
def test_circuit_verdicts(row, set_cap):
    compare("circuit-verdicts", row, set_cap)


def _global_names(code):
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _global_names(const)


def reads_only_oracles(fn):
    """Whether every module-level name of routes.py that ``fn`` reads is
    defined in oracles.py, and ``fn`` reads no encoding of an LS case."""
    module = vars(routes)
    names = set(_global_names(fn.__code__))
    return not names & {"spec", "inst"} and all(
        getattr(module[name], "__module__", None) == "oracles" for name in names & module.keys()
    )


def test_every_row_has_an_independent_reference():
    """A route marked independent reads only oracles.py and the natural input
    (an LS case's ``direct`` function comes from oracles.py).  Each row's
    first route is independent, or the row has none and is allowlisted."""
    assert not reads_only_oracles(routes.PERMANENT.routes["permanent_brute"].fn)
    assert not reads_only_oracles(lambda c, _: sum(map(c.spec.verifier, c.inst.elements)))
    rows = set()
    for quantity, (table, inputs) in QUANTITIES.items():
        for name, route in table.items():
            assert not route.independent or reads_only_oracles(route.fn), (quantity, name)
        for row, row_inputs in inputs.items():
            names = row_inputs.routes or tuple(table)
            allowed = (quantity, row) in NO_INDEPENDENT_ROUTE
            assert table[names[0]].independent != allowed, (quantity, row)
            assert not any(table[name].independent for name in names) or not allowed
            rows.add((quantity, row))
    assert set(NO_INDEPENDENT_ROUTE) <= rows
