// Package hotallocdata exercises the hotalloc rule: allocation sites
// inside //hot:path functions, the cold-error-exit exemption, and the
// //lint:allow escape hatch.
package hotallocdata

import (
	"errors"
	"fmt"
)

type record struct {
	host string
	n    int
}

//hot:path — fixture stand-in for a per-line parser.
func parse(line string) (record, error) {
	raw := []byte(line) // want `conversion \[\]byte on the hot path copies its operand`
	if len(raw) == 0 {
		return record{}, errors.New("hotallocdata: empty line") // cold error exit: exempt
	}
	fmt.Println(line)         // want `fmt call on the hot path: formatting boxes every operand and allocates its result`
	m := make(map[string]int) // want `make of a map with no size hint on the hot path; presize it`
	m[line]++
	buf := make([]byte, 0) // want `make of a zero-length slice with no capacity on the hot path; presize it`
	_ = buf
	return record{host: line, n: len(m)}, nil
}

//hot:path — error exits may format freely.
func parseStrict(line string) (record, error) {
	if line == "" {
		return record{}, fmt.Errorf("hotallocdata: empty line %q", line)
	}
	return record{host: line}, nil
}

//hot:path — un-presized growth in the fold loop.
func fold(lines []string) []record {
	var out []record
	for _, line := range lines {
		out = append(out, record{host: line}) // want `append inside a loop to out, which has no presized definition in this function; growth reallocates on the hot path`
	}
	return out
}

//hot:path — the fixed counterpart: capacity reaches the append.
func foldPresized(lines []string) []record {
	out := make([]record, 0, len(lines))
	for _, line := range lines {
		out = append(out, record{host: line})
	}
	return out
}

// A documented, amortized allocation stays via the escape hatch; the
// allow reason is the budget decision.
//
//hot:path
func foldAllowed(lines []string) []record {
	var out []record
	for _, line := range lines {
		out = append(out, record{host: line}) //lint:allow hotalloc amortized per closed session, not per record
	}
	return out
}

type sink interface {
	put(v interface{})
}

//hot:path — interface boxing at a call site.
func box(s sink, r record) {
	s.put(r) // want `passing r boxes a concrete value into an interface parameter on the hot path \(the container/heap cost class\)`
}

//hot:path — interface boxing through assignment.
func assignBox(r record) {
	var v interface{}
	v = r // want `assigning r boxes a concrete value into interface storage on the hot path`
	_ = v
}

//hot:path — every closure is a heap object once its context escapes.
func counter() func() int {
	n := 0
	return func() int { // want `closure on the hot path: the function literal \(and its captured variables\) allocate once its context escapes`
		n++
		return n
	}
}

// cold is not annotated: the same allocation sites are fine off the
// hot path.
func cold(lines []string) []string {
	var out []string
	for _, l := range lines {
		out = append(out, fmt.Sprintf("%q", l))
	}
	return out
}
