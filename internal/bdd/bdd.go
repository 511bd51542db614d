// Package bdd implements reduced ordered binary decision diagrams. The
// data-plane generator's witness pre-pass (internal/symbolic/witness.go)
// is its one user: it builds, per table, the predicate "the key bits hit
// entry E and escape every higher-precedence entry" from the connectives,
// bounds the ingress port with LtConst, and reads a candidate packet key
// off MinSat.
package bdd

import "fmt"

// Node references a BDD node; 0 is the false terminal, 1 the true one.
type Node int32

// Terminals.
const (
	False Node = 0
	True  Node = 1
)

type node struct {
	level  int32 // variable index; terminals use a sentinel level
	lo, hi Node
}

// Builder constructs and combines BDD nodes over a fixed variable count.
type Builder struct {
	numVars int
	nodes   []node
	unique  map[node]Node
	apply   map[applyKey]Node
	notMemo map[Node]Node
}

type applyKey struct {
	op   byte // '&', '|', '^'
	a, b Node
}

const terminalLevel = int32(1) << 30

// New returns a builder over numVars boolean variables, ordered by index.
func New(numVars int) *Builder {
	b := &Builder{
		numVars: numVars,
		unique:  map[node]Node{},
		apply:   map[applyKey]Node{},
		notMemo: map[Node]Node{},
	}
	b.nodes = []node{
		{level: terminalLevel}, // False
		{level: terminalLevel}, // True
	}
	return b
}

// NumVars returns the variable count.
func (b *Builder) NumVars() int { return b.numVars }

// Size returns the number of allocated nodes (including terminals).
func (b *Builder) Size() int { return len(b.nodes) }

func (b *Builder) mk(level int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	n := node{level: level, lo: lo, hi: hi}
	if id, ok := b.unique[n]; ok {
		return id
	}
	id := Node(len(b.nodes))
	b.nodes = append(b.nodes, n)
	b.unique[n] = id
	return id
}

// Var returns the BDD for variable i.
func (b *Builder) Var(i int) Node {
	if i < 0 || i >= b.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, b.numVars))
	}
	return b.mk(int32(i), False, True)
}

// NVar returns the BDD for the negation of variable i.
func (b *Builder) NVar(i int) Node {
	if i < 0 || i >= b.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, b.numVars))
	}
	return b.mk(int32(i), True, False)
}

// Not returns the complement.
func (b *Builder) Not(a Node) Node {
	switch a {
	case False:
		return True
	case True:
		return False
	}
	if r, ok := b.notMemo[a]; ok {
		return r
	}
	n := b.nodes[a]
	r := b.mk(n.level, b.Not(n.lo), b.Not(n.hi))
	b.notMemo[a] = r
	return r
}

// And returns a ∧ b.
func (b *Builder) And(x, y Node) Node { return b.applyOp('&', x, y) }

// Or returns a ∨ b.
func (b *Builder) Or(x, y Node) Node { return b.applyOp('|', x, y) }

// Xor returns a ⊕ b.
func (b *Builder) Xor(x, y Node) Node { return b.applyOp('^', x, y) }

// Implies returns a → b.
func (b *Builder) Implies(x, y Node) Node { return b.Or(b.Not(x), y) }

// Iff returns a ↔ b.
func (b *Builder) Iff(x, y Node) Node { return b.Not(b.Xor(x, y)) }

func (b *Builder) applyOp(op byte, x, y Node) Node {
	// Terminal cases.
	switch op {
	case '&':
		if x == False || y == False {
			return False
		}
		if x == True {
			return y
		}
		if y == True {
			return x
		}
		if x == y {
			return x
		}
	case '|':
		if x == True || y == True {
			return True
		}
		if x == False {
			return y
		}
		if y == False {
			return x
		}
		if x == y {
			return x
		}
	case '^':
		if x == False {
			return y
		}
		if y == False {
			return x
		}
		if x == y {
			return False
		}
		if x == True {
			return b.Not(y)
		}
		if y == True {
			return b.Not(x)
		}
	}
	if x > y {
		x, y = y, x
	}
	key := applyKey{op, x, y}
	if r, ok := b.apply[key]; ok {
		return r
	}
	nx, ny := b.nodes[x], b.nodes[y]
	level := nx.level
	if ny.level < level {
		level = ny.level
	}
	xlo, xhi := x, x
	if nx.level == level {
		xlo, xhi = nx.lo, nx.hi
	}
	ylo, yhi := y, y
	if ny.level == level {
		ylo, yhi = ny.lo, ny.hi
	}
	r := b.mk(level, b.applyOp(op, xlo, ylo), b.applyOp(op, xhi, yhi))
	b.apply[key] = r
	return r
}

// Eval evaluates the BDD under a full assignment.
func (b *Builder) Eval(n Node, assignment []bool) bool {
	for n != False && n != True {
		nd := b.nodes[n]
		if assignment[nd.level] {
			n = nd.hi
		} else {
			n = nd.lo
		}
	}
	return n == True
}

// MinSat returns the deterministic minimum satisfying assignment of n:
// the walk prefers the lo (false) branch whenever it stays satisfiable,
// and every variable the walk never constrains reads false. In a reduced
// OBDD every node other than False has a satisfying path, so the walk
// needs no backtracking. ok is false when n is unsatisfiable.
func (b *Builder) MinSat(n Node) (assignment []bool, ok bool) {
	if n == False {
		return nil, false
	}
	assignment = make([]bool, b.numVars)
	for n != True {
		nd := b.nodes[n]
		if nd.lo != False {
			n = nd.lo
		} else {
			assignment[nd.level] = true
			n = nd.hi
		}
	}
	return assignment, true
}

// LtConst returns the BDD for "bits < value" (unsigned, MSB-first).
func (b *Builder) LtConst(bits []int, value uint64) Node {
	// Walk MSB to LSB: strictly-less happens at the first position where
	// the constant has 1 and the variable is 0, with all higher bits equal.
	r := False
	prefixEq := True
	for i, v := range bits {
		bit := value>>(uint(len(bits)-1-i))&1 == 1
		if bit {
			r = b.Or(r, b.And(prefixEq, b.NVar(v)))
			prefixEq = b.And(prefixEq, b.Var(v))
		} else {
			prefixEq = b.And(prefixEq, b.NVar(v))
		}
	}
	return r
}
