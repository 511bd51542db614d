// Package p4info derives the control-plane API view of a compiled P4 model:
// the table, match-field, action and parameter IDs that P4Runtime messages
// reference, plus a canonical text serialization used when pushing the
// forwarding pipeline config to a switch and when fingerprinting a model.
package p4info

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"switchv/internal/p4/ir"
)

// Info is the control-plane API of a P4 model.
type Info struct {
	Name    string
	program *ir.Program

	tablesByID  map[uint32]*ir.Table
	actionsByID map[uint32]*ir.Action
	deps        map[*ir.Table][]string // Dependencies of each table, computed once
}

// New derives the Info from a compiled program.
func New(p *ir.Program) *Info {
	info := &Info{
		Name:        p.Name,
		program:     p,
		tablesByID:  make(map[uint32]*ir.Table, len(p.Tables)),
		actionsByID: make(map[uint32]*ir.Action, len(p.Actions)),
		deps:        make(map[*ir.Table][]string, len(p.Tables)),
	}
	for _, t := range p.Tables {
		info.tablesByID[t.ID] = t
		info.deps[t] = dependencies(t)
	}
	for _, a := range p.Actions {
		info.actionsByID[a.ID] = a
	}
	return info
}

// Program returns the underlying compiled program.
func (i *Info) Program() *ir.Program { return i.program }

// Tables lists all tables in declaration order.
func (i *Info) Tables() []*ir.Table { return i.program.Tables }

// Actions lists all actions in declaration order.
func (i *Info) Actions() []*ir.Action { return i.program.Actions }

// TableByID resolves a table ID.
func (i *Info) TableByID(id uint32) (*ir.Table, bool) {
	t, ok := i.tablesByID[id]
	return t, ok
}

// ActionByID resolves an action ID.
func (i *Info) ActionByID(id uint32) (*ir.Action, bool) {
	a, ok := i.actionsByID[id]
	return a, ok
}

// TableByName resolves a table name.
func (i *Info) TableByName(name string) (*ir.Table, bool) {
	return i.program.TableByName(name)
}

// ActionByName resolves an action name.
func (i *Info) ActionByName(name string) (*ir.Action, bool) {
	return i.program.ActionByName(name)
}

// MatchFieldByID resolves a table's match field by its 1-based id.
func (i *Info) MatchFieldByID(t *ir.Table, id int) (ir.KeyField, bool) {
	if id < 1 || id > len(t.Keys) {
		return ir.KeyField{}, false
	}
	return t.Keys[id-1], true
}

// ParamByID resolves an action parameter by its 1-based id.
func (i *Info) ParamByID(a *ir.Action, id int) (ir.ActionParam, bool) {
	if id < 1 || id > len(a.Params) {
		return ir.ActionParam{}, false
	}
	return a.Params[id-1], true
}

// Text renders the Info in a stable, human-readable format modeled on
// p4info.txt. It is the wire payload of SetForwardingPipelineConfig.
func (i *Info) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pkg_info { name: %q }\n", i.Name)
	for _, t := range i.program.Tables {
		fmt.Fprintf(&b, "table { id: %#08x name: %q size: %d", t.ID, t.Name, t.Size)
		if t.IsSelector {
			b.WriteString(" implementation: ACTION_SELECTOR")
		}
		if t.EntryRestriction != "" {
			fmt.Fprintf(&b, " restriction: %q", t.EntryRestriction)
		}
		b.WriteString("\n")
		for _, k := range t.Keys {
			fmt.Fprintf(&b, "  match_field { id: %d name: %q bitwidth: %d match_type: %s",
				k.Index, k.Name, k.Field.Width, strings.ToUpper(k.Match.String()))
			if k.RefersTo != nil {
				fmt.Fprintf(&b, " refers_to: %q", k.RefersTo.Table+"."+k.RefersTo.Field)
			}
			b.WriteString(" }\n")
		}
		for _, a := range t.Actions {
			fmt.Fprintf(&b, "  action_ref { id: %#08x }\n", a.ID)
		}
		fmt.Fprintf(&b, "  default_action { id: %#08x const: %v }\n", t.DefaultAction.ID, t.ConstDefault)
		b.WriteString("}\n")
	}
	for _, a := range i.program.Actions {
		fmt.Fprintf(&b, "action { id: %#08x name: %q\n", a.ID, a.Name)
		for _, p := range a.Params {
			fmt.Fprintf(&b, "  param { id: %d name: %q bitwidth: %d", p.Index, p.Name, p.Width)
			if p.RefersTo != nil {
				fmt.Fprintf(&b, " refers_to: %q", p.RefersTo.Table+"."+p.RefersTo.Field)
			}
			b.WriteString(" }\n")
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// Fingerprint returns a stable hex digest of the control-plane API,
// suitable as a cache key (§6.3 "Caching").
func (i *Info) Fingerprint() string {
	sum := sha256.Sum256([]byte(i.Text()))
	return hex.EncodeToString(sum[:])
}

// Dependencies returns the sorted names of tables that the given table's
// entries may reference (via key or action-parameter @refers_to). A
// table of the Info's program gets the list New computed, with its
// capacity clipped so that an append by the caller copies; callers must
// not write its elements.
func (i *Info) Dependencies(t *ir.Table) []string {
	if d, ok := i.deps[t]; ok {
		return d[:len(d):len(d)]
	}
	return dependencies(t)
}

func dependencies(t *ir.Table) []string {
	var out []string
	for _, k := range t.Keys {
		if k.RefersTo != nil {
			out = append(out, k.RefersTo.Table)
		}
	}
	for _, a := range t.Actions {
		for _, p := range a.Params {
			if p.RefersTo != nil {
				out = append(out, p.RefersTo.Table)
			}
		}
	}
	sort.Strings(out)
	return dedup(out)
}

func dedup(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// TopoOrder returns the tables sorted so that every table appears after
// the tables its entries may reference — the order in which entries must
// be installed to keep references valid. Ties keep declaration order.
func (i *Info) TopoOrder() []*ir.Table {
	rank := i.Ranks()
	out := append([]*ir.Table(nil), i.program.Tables...)
	sort.SliceStable(out, func(a, b int) bool { return rank[out[a].Name] < rank[out[b].Name] })
	return out
}

// Ranks maps each table name to the length of the longest @refers_to
// path that starts at the table, ignoring self-references. An entry can
// only reference entries of lower-ranked tables or of its own table.
// It is computed on every call, from the Dependencies New computed.
func (i *Info) Ranks() map[string]int {
	tables := i.program.Tables
	rank := make(map[string]int, len(tables))
	for _, t := range tables {
		rank[t.Name] = 0
	}
	for round := 0; round < len(tables); round++ {
		changed := false
		for _, t := range tables {
			r := 0
			for _, dep := range i.Dependencies(t) {
				if dep == t.Name {
					continue // self-references do not order
				}
				if rank[dep]+1 > r {
					r = rank[dep] + 1
				}
			}
			if r != rank[t.Name] {
				rank[t.Name] = r
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return rank
}
