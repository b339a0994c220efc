"""Tests for the loop-nest IR: affine algebra, statements, static checking."""

import pytest

from repro.errors import TileError
from repro.tile.ir import (
    Affine,
    Assign,
    Buffer,
    Const,
    Guard,
    Loop,
    LoopKind,
    Proc,
    Read,
    TensorParam,
    check_proc,
    mul,
    read,
    substitute_stmts,
    to_affine,
    walk_stmts,
)


class TestAffine:
    def test_algebra_normalises_terms(self):
        i, j = Affine.var("i"), Affine.var("j")
        expr = i * 3 + j + i - j + 2
        assert expr == Affine(const=2, terms=(("i", 4),))

    def test_evaluate_and_bounds(self):
        expr = Affine.var("i") * 4 + Affine.var("j") + 1
        assert expr.evaluate({"i": 2, "j": 3}) == 12
        assert expr.bounds({"i": 3, "j": 4}) == (1, 12)

    def test_negative_coefficient_bounds(self):
        expr = Affine.var("i") * -2 + 10
        assert expr.bounds({"i": 4}) == (4, 10)

    def test_substitute(self):
        expr = Affine.var("i") * 6
        sub = expr.substitute({"i": Affine.var("o") * 2 + Affine.var("q")})
        assert sub == Affine(terms=(("o", 12), ("q", 6)))

    def test_split_terms(self):
        expr = Affine.var("bx") * 16 + Affine.var("tx") * 2 + 5
        base, offset = expr.split_terms(frozenset({"tx"}))
        assert base == Affine(const=5, terms=(("bx", 16),))
        assert offset == Affine(terms=(("tx", 2),))

    def test_evaluate_unbound_raises(self):
        with pytest.raises(TileError, match="unbound"):
            Affine.var("i").evaluate({})

    def test_coercion(self):
        assert to_affine(3) == Affine.constant(3)
        assert to_affine("i") == Affine.var("i")
        with pytest.raises(TileError):
            to_affine(True)
        with pytest.raises(TileError):
            Affine.var("i") * Affine.var("j")  # non-linear


def _vec_proc(n: int, index, extent=None) -> Proc:
    return Proc(
        name="p",
        params=(TensorParam("src", (n,)), TensorParam("dst", (n,))),
        body=(
            Loop(
                var="i",
                extent=extent or n,
                body=(Assign(tensor="dst", index=(to_affine(index),), value=read("src", "i")),),
            ),
        ),
    )


class TestCheckProc:
    def test_valid_proc_passes(self):
        check_proc(_vec_proc(8, "i"))

    def test_out_of_bounds_write_rejected(self):
        with pytest.raises(TileError, match="outside dimension"):
            check_proc(_vec_proc(8, "i", extent=9))

    def test_duplicate_loop_vars_rejected(self):
        proc = Proc(
            name="p",
            params=(TensorParam("t", (4,)),),
            body=(
                Loop(var="i", extent=2, body=(
                    Loop(var="i", extent=2, body=(
                        Assign(tensor="t", index=(to_affine("i"),), value=Const(0.0)),
                    )),
                )),
            ),
        )
        with pytest.raises(TileError, match="duplicate"):
            check_proc(proc)

    def test_rank_mismatch_rejected(self):
        proc = Proc(
            name="p",
            params=(TensorParam("t", (4, 4)),),
            body=(
                Loop(var="i", extent=4, body=(
                    Assign(tensor="t", index=(to_affine("i"),), value=Const(0.0)),
                )),
            ),
        )
        with pytest.raises(TileError, match="dimensional"):
            check_proc(proc)

    def test_double_thread_binding_rejected(self):
        proc = Proc(
            name="p",
            params=(TensorParam("t", (4,)),),
            body=(
                Loop(var="i", extent=2, kind=LoopKind.THREAD_X, body=(
                    Loop(var="j", extent=2, kind=LoopKind.THREAD_X, body=(
                        Assign(
                            tensor="t",
                            index=(Affine.var("i") * 2 + Affine.var("j"),),
                            value=Const(0.0),
                        ),
                    )),
                )),
            ),
        )
        with pytest.raises(TileError, match="both bound"):
            check_proc(proc)

    @staticmethod
    def _guarded_proc(index: Affine, guard: Affine) -> Proc:
        """``t[index] = 0`` under ``if guard < 10`` over i, j in 4 x 4 (t has 10 elements)."""
        return Proc(
            name="p",
            params=(TensorParam("t", (10,)),),
            body=(
                Loop(var="i", extent=4, body=(
                    Loop(var="j", extent=4, body=(
                        Guard(expr=guard, bound=10, body=(
                            Assign(tensor="t", index=(index,), value=Const(0.0)),
                        )),
                    )),
                )),
            ),
        )

    def test_guard_caps_an_index_with_its_terms(self):
        # 4*i + j spans [0, 15]; the predicate_tail guard keeps it below 10.
        e = Affine.var("i") * 4 + Affine.var("j")
        check_proc(self._guarded_proc(e, e))

    def test_guard_cap_ignores_the_order_terms_were_built_in(self):
        e = Affine.var("i") * 4 + Affine.var("j")
        check_proc(self._guarded_proc(e, Affine.var("j") + Affine.var("i") * 4))

    def test_guard_cap_keeps_the_constant_difference(self):
        e = Affine.var("i") * 4 + Affine.var("j")
        with pytest.raises(TileError, match=r"spans \[1, 10\] outside dimension 10"):
            check_proc(self._guarded_proc(e + 1, e))

    def test_buffer_validation(self):
        with pytest.raises(TileError, match="padded"):
            Buffer(name="b", shape=(4,), memory="register", pad=1)
        with pytest.raises(TileError, match="'shared' or 'register'"):
            Buffer(name="b", shape=(4,), memory="texture")
        assert Buffer(name="b", shape=(4, 8), memory="shared", pad=1).padded_shape == (4, 9)
        assert Buffer(name="b", shape=(4, 8), memory="shared", pad=1).strides() == (9, 1)


class TestProc:
    def test_outputs_and_strides(self):
        proc = _vec_proc(8, "i")
        assert proc.outputs() == ("dst",)
        assert TensorParam("t", (3, 5, 7)).strides() == (35, 7, 1)

    def test_find_loop_and_missing(self):
        proc = _vec_proc(8, "i")
        assert proc.find_loop("i").extent == 8
        with pytest.raises(TileError, match="no loop 'z'"):
            proc.find_loop("z")

    def test_substitute_stmts_rewrites_reads_and_writes(self):
        proc = _vec_proc(8, "i")
        body = substitute_stmts(proc.body, {"i": Affine.var("a") * 2})
        assigns = [s for s in walk_stmts(body) if isinstance(s, Assign)]
        assert assigns[0].index[0] == Affine(terms=(("a", 2),))
        assert isinstance(assigns[0].value, Read)
        assert assigns[0].value.index[0] == Affine(terms=(("a", 2),))

    def test_str_round_trip_smoke(self):
        text = str(_vec_proc(4, "i"))
        assert "proc p" in text and "for i in 4:" in text

    def test_expr_helpers(self):
        product = mul(read("a", "i"), read("b", "i"))
        assert str(product) == "(a[i] * b[i])"
