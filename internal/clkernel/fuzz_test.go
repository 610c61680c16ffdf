package clkernel_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/clkernel"
	"repro/internal/synth"
)

// FuzzParseKernel feeds the parser arbitrary source, seeded with every
// training and benchmark kernel and with nesting past the depth limit:
// Parse must never panic or overflow the stack, and must be deterministic
// (a second parse returns an equal program or the same error).
func FuzzParseKernel(f *testing.F) {
	for _, b := range synth.Generate() {
		f.Add(b.Source)
	}
	for _, b := range bench.All() {
		f.Add(b.Source)
	}
	f.Add("__kernel void k(__global float* o){ o[0] = " +
		strings.Repeat("(", 5000) + "1" + strings.Repeat(")", 5000) + "; }")
	f.Add("__kernel void k(){ " + strings.Repeat("if (1) {", 2000) + strings.Repeat("}", 2000) + " }")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := clkernel.Parse(src)
		prog2, err2 := clkernel.Parse(src)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("nondeterministic error: %v, then %v", err, err2)
		}
		if !reflect.DeepEqual(prog, prog2) {
			t.Fatal("nondeterministic parse: two parses of one source differ")
		}
	})
}

// TestParseRejectsDeepNesting: each recursive construct nested ten times
// past the depth limit fails with ErrTooDeep; moderate nesting parses. (The
// daemon test sends a million parentheses through /select.)
func TestParseRejectsDeepNesting(t *testing.T) {
	const n = 10000
	kernel := func(body string) string { return "__kernel void k(__global float* o){ " + body + " }" }
	for name, src := range map[string]string{
		"parens": kernel("o[0] = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";"),
		"blocks": kernel(strings.Repeat("{", n) + strings.Repeat("}", n)),
		"ifs":    kernel(strings.Repeat("if (1) ", n) + "o[0] = 1;"),
		"unary":  kernel("o[0] = " + strings.Repeat("-", n) + "1;"),
		"assign": kernel(strings.Repeat("o[0] = ", n) + "1;"),
		"cond":   kernel("o[0] = " + strings.Repeat("1 ? 1 : ", n) + "1;"),
	} {
		_, err := clkernel.Parse(src)
		if !errors.Is(err, clkernel.ErrTooDeep) {
			t.Errorf("%s: err = %v, want ErrTooDeep", name, err)
		}
	}
	src := kernel("o[0] = " + strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100) + ";")
	if _, err := clkernel.Parse(src); err != nil {
		t.Fatalf("100 nested parentheses: %v", err)
	}
}
