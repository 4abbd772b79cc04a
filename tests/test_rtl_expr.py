"""Unit tests for repro.rtl.expr."""

import itertools

import pytest

from repro.rtl.expr import (
    FALSE,
    TRUE,
    Const,
    ExprError,
    Mux,
    Var,
    and_,
    bv_add,
    bv_assign,
    bv_const,
    bv_eq,
    bv_eq_const,
    bv_inc,
    bv_mux,
    bv_value,
    bv_vars,
    const,
    evaluate,
    implies_,
    mux,
    not_,
    onehot_constraint,
    or_,
    substitute,
    support,
    var,
    xnor_,
    xor_,
)


class TestConstantFolding:
    def test_and_with_false(self):
        assert and_(var("a"), FALSE) is FALSE

    def test_and_with_true_dropped(self):
        assert and_(var("a"), TRUE) == var("a")

    def test_empty_and_is_true(self):
        assert and_() is TRUE

    def test_or_with_true(self):
        assert or_(var("a"), TRUE) is TRUE

    def test_empty_or_is_false(self):
        assert or_() is FALSE

    def test_double_negation(self):
        assert not_(not_(var("a"))) == var("a")

    def test_not_const(self):
        assert not_(TRUE) is FALSE

    def test_xor_with_consts(self):
        a = var("a")
        assert xor_(a, FALSE) == a
        assert xor_(a, TRUE) == not_(a)
        assert xor_(a, a) is FALSE

    def test_mux_const_select(self):
        assert mux(TRUE, var("a"), var("b")) == var("a")
        assert mux(FALSE, var("a"), var("b")) == var("b")

    def test_mux_same_branches(self):
        assert mux(var("s"), var("a"), var("a")) == var("a")

    def test_mux_const_branches(self):
        s = var("s")
        assert mux(s, TRUE, FALSE) == s
        assert mux(s, FALSE, TRUE) == not_(s)

    def test_nested_and_flattens(self):
        e = and_(and_(var("a"), var("b")), var("c"))
        assert len(e.args) == 3

    def test_and_dedups(self):
        assert and_(var("a"), var("a")) == var("a")

    def test_operators(self):
        a, b = var("a"), var("b")
        assert (a & b) == and_(a, b)
        assert (a | b) == or_(a, b)
        assert (a ^ b) == xor_(a, b)
        assert (~a) == not_(a)


class TestEvaluate:
    def test_all_gates_truth_tables(self):
        a, b = var("a"), var("b")
        cases = [
            (and_(a, b), lambda x, y: x and y),
            (or_(a, b), lambda x, y: x or y),
            (xor_(a, b), lambda x, y: x != y),
            (xnor_(a, b), lambda x, y: x == y),
            (implies_(a, b), lambda x, y: (not x) or y),
        ]
        for expr, oracle in cases:
            for x, y in itertools.product((False, True), repeat=2):
                assert evaluate(expr, {"a": x, "b": y}) == oracle(x, y)

    def test_mux_truth_table(self):
        e = mux(var("s"), var("a"), var("b"))
        for s, a, b in itertools.product((False, True), repeat=3):
            assert evaluate(e, {"s": s, "a": a, "b": b}) == (a if s else b)

    def test_unbound_raises(self):
        with pytest.raises(ExprError):
            evaluate(var("zz"), {})


class TestAnalysis:
    def test_support(self):
        e = mux(var("s"), and_(var("a"), var("b")), not_(var("c")))
        assert support(e) == {"s", "a", "b", "c"}

    def test_support_of_const(self):
        assert support(TRUE) == frozenset()

    def test_support_of_several_roots(self):
        shared = and_(var("a"), var("b"))
        assert support(shared, or_(shared, var("c")), TRUE) == {
            "a", "b", "c",
        }
        assert support() == frozenset()

    def test_substitute_folds(self):
        e = and_(var("a"), var("b"))
        assert substitute(e, {"a": TRUE}) == var("b")
        assert substitute(e, {"a": FALSE}) is FALSE

    def test_substitute_expression(self):
        e = or_(var("a"), var("c"))
        result = substitute(e, {"a": and_(var("x"), var("y"))})
        assert support(result) == {"x", "y", "c"}


class TestBitVectors:
    def test_bv_vars_names(self):
        v = bv_vars("pc", 3)
        assert [b.name for b in v] == ["pc[0]", "pc[1]", "pc[2]"]

    def test_bv_const_bits(self):
        v = bv_const(4, 0b1010)
        assert [b.value for b in v] == [False, True, False, True]

    def test_bv_const_range_check(self):
        with pytest.raises(ExprError):
            bv_const(2, 4)

    def test_bv_eq_truth(self):
        a = bv_vars("a", 2)
        for val in range(4):
            e = bv_eq_const(a, val)
            for x in range(4):
                env = bv_assign("a", 2, x)
                assert evaluate(e, env) == (x == val)

    def test_bv_eq_width_mismatch(self):
        with pytest.raises(ExprError):
            bv_eq(bv_vars("a", 2), bv_vars("b", 3))

    def test_bv_mux_and_value(self):
        a = bv_vars("a", 3)
        b = bv_vars("b", 3)
        m = bv_mux(var("s"), a, b)
        env = {**bv_assign("a", 3, 5), **bv_assign("b", 3, 2)}
        assert bv_value(m, {**env, "s": True}) == 5
        assert bv_value(m, {**env, "s": False}) == 2

    def test_bv_add_exhaustive(self):
        a = bv_vars("a", 3)
        b = bv_vars("b", 3)
        total, carry = bv_add(a, b)
        for x in range(8):
            for y in range(8):
                env = {**bv_assign("a", 3, x), **bv_assign("b", 3, y)}
                assert bv_value(total, env) == (x + y) % 8
                assert evaluate(carry, env) == (x + y >= 8)

    def test_bv_inc_wraps(self):
        a = bv_vars("a", 2)
        inc = bv_inc(a)
        for x in range(4):
            assert bv_value(inc, bv_assign("a", 2, x)) == (x + 1) % 4

    def test_onehot_constraint(self):
        bits = [var("h0"), var("h1"), var("h2")]
        e = onehot_constraint(bits)
        for v in range(8):
            env = {f"h{i}": bool((v >> i) & 1) for i in range(3)}
            assert evaluate(e, env) == (bin(v).count("1") == 1)
