package ir_test

import (
	"testing"

	"switchv/internal/p4/ir"
	"switchv/internal/p4/parser"
	"switchv/models"
)

// FuzzFrontEnd feeds arbitrary source to the P4 front end, the parser
// and then ir.Compile, as a daemon loading an untrusted model would: it
// must return a program or an error, never panic or hang. The seeds are
// every embedded model and its truncations.
func FuzzFrontEnd(f *testing.F) {
	for _, name := range models.Names() {
		src, err := models.Source(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []int{len(src), len(src) / 2, len(src) / 3, len(src) / 5} {
			f.Add(src[:n])
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		_, _ = ir.Compile(prog)
	})
}
