package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// finalBlock returns the final snapshot block of a stream or serve
// report: everything from the "-- final @" line to the end.
func finalBlock(out []byte) ([]byte, error) {
	i := bytes.Index(out, []byte("-- final @"))
	if i < 0 {
		return nil, errors.New("no final block in output")
	}
	if i > 0 && out[i-1] != '\n' {
		return nil, errors.New("final block marker is not at a line start")
	}
	return out[i:], nil
}

// sameBytes reports where got first differs from want.
func sameBytes(what string, want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Errorf("%s differs at line %d: want %q, got %q", what, i+1, w, g)
		}
	}
	return fmt.Errorf("%s differs", what)
}

// totals reads requests= and sessions= from the first line of out that
// carries them (the final block's totals line, or analyze's header).
func totals(out []byte) (requests, sessions int64, err error) {
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.Contains(line, "requests=") || !strings.Contains(line, "sessions=") {
			continue
		}
		for _, field := range strings.Fields(line) {
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				continue
			}
			n, perr := strconv.ParseInt(strings.ReplaceAll(v, ",", ""), 10, 64)
			switch k {
			case "requests":
				requests, err = n, perr
			case "sessions":
				sessions, err = n, perr
			}
			if err != nil {
				return 0, 0, fmt.Errorf("totals line %q: %w", line, err)
			}
		}
		return requests, sessions, nil
	}
	return 0, 0, errors.New("no totals line in output")
}

// checkTotals compares reported totals with the generator's planted
// record and session counts.
func checkTotals(out []byte, wantRecords, wantSessions int64) error {
	r, s, err := totals(out)
	if err != nil {
		return err
	}
	if r != wantRecords || s != wantSessions {
		return fmt.Errorf("totals requests=%d sessions=%d, generator planted %d and %d", r, s, wantRecords, wantSessions)
	}
	return nil
}
