package bdd

import "testing"

func TestBasics(t *testing.T) {
	b := New(3)
	x, y, z := b.Var(0), b.Var(1), b.Var(2)

	if b.And(x, b.Not(x)) != False {
		t.Error("x & ~x != false")
	}
	if b.Or(x, b.Not(x)) != True {
		t.Error("x | ~x != true")
	}
	if b.Xor(x, x) != False {
		t.Error("x ^ x != false")
	}
	if b.Implies(False, x) != True {
		t.Error("false -> x != true")
	}
	if b.Iff(x, x) != True {
		t.Error("x <-> x != true")
	}
	f := b.And(x, b.Or(y, z))
	if !b.Eval(f, []bool{true, true, false}) {
		t.Error("eval(110)")
	}
	if b.Eval(f, []bool{false, true, true}) {
		t.Error("eval(011)")
	}
	// Hash consing: same structure, same node.
	if b.And(x, b.Or(y, z)) != f {
		t.Error("not canonical")
	}
}

func TestIntComparators(t *testing.T) {
	b := New(8)
	bits := []int{0, 1, 2, 3, 4, 5, 6, 7} // MSB first
	eval := func(n Node, v uint64) bool {
		a := make([]bool, 8)
		for i := 0; i < 8; i++ {
			a[i] = v>>(7-uint(i))&1 == 1
		}
		return b.Eval(n, a)
	}
	lt42 := b.LtConst(bits, 42)
	for v := uint64(0); v < 256; v++ {
		if eval(lt42, v) != (v < 42) {
			t.Fatalf("lt: v=%d", v)
		}
	}
}

func TestVarBounds(t *testing.T) {
	b := New(2)
	for _, f := range []func(){
		func() { b.Var(-1) },
		func() { b.Var(2) },
		func() { b.NVar(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
	if b.Size() < 2 {
		t.Error("Size")
	}
}
