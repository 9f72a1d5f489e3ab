package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"sync"
	"testing"
	"time"

	"fullweb/internal/obs"
)

// FuzzIntakeDeliveries splits fuzzed bytes into deliveries over one to
// three sources and feeds them through the intake the way TCP
// connections do: one goroutine per source, blocking on a full buffer,
// completing the source at the end, while one goroutine drains
// intake.Read. Some deliveries carry a delivery ID, and some of those
// are redelivered at once; every stamped delivery is redelivered again
// after its source completes. The drained bytes must be exactly the
// per-source concatenation in declared order — each duplicate folded
// once, each delivery larger than the buffer refused whole — no
// source may hold more unread bytes than the cap, and with a journal a
// Resume reopen must drain the same bytes and rebuild the same dedup
// sets.
//
// Arguments: data splits on NUL into at most 64 deliveries (empties
// are dropped, as the transports never append an empty body); route
// byte i%len(route) places delivery i: its low two bits pick the
// source, bit 2 stamps an ID, bit 3 redelivers it at once; nsrc picks
// the source count; bufCap sets the per-source buffer; journal runs
// with a journal of small segments, so reads cross segment files.
func FuzzIntakeDeliveries(f *testing.F) {
	lines := []byte("a\nb\n\x00c\n\x00d\ne\nf\n\x00g\n\x00h\ni\n")
	f.Add(lines, []byte{0x0c, 0x01, 0x0d, 0x02, 0x04}, uint8(2), uint16(6), true)
	f.Add(lines, []byte{0x0e, 0x05, 0x00}, uint8(1), uint16(4), false)
	f.Fuzz(func(t *testing.T, data, route []byte, nsrc uint8, bufCap uint16, journal bool) {
		if len(data) > 4<<10 {
			return
		}
		names := []string{"s0", "s1", "s2"}[:1+int(nsrc)%3]
		capBytes := 1 + int64(bufCap%512)
		type delivery struct {
			id        string
			body      []byte
			redeliver bool
		}
		plan := make([][]delivery, len(names))
		wantBy := make([][]byte, len(names))
		for i, body := range bytes.Split(data, []byte{0}) {
			if len(body) == 0 || i >= 64 {
				continue
			}
			var r byte
			if len(route) > 0 {
				r = route[i%len(route)]
			}
			src := int(r&3) % len(names)
			d := delivery{body: body}
			if r&4 != 0 {
				d.id = fmt.Sprintf("%s-%d", names[src], i)
				d.redeliver = r&8 != 0
			}
			plan[src] = append(plan[src], d)
			if int64(len(body)) <= capBytes {
				wantBy[src] = append(wantBy[src], body...)
			}
		}
		want := bytes.Join(wantBy, nil)

		ctx := context.Background()
		cfg := WALConfig{Dir: t.TempDir(), SegmentBytes: 512}
		quiet := func(string, ...any) {}
		open := func(resume bool) (*intake, *walManager) {
			in, err := newIntake(names, capBytes, obs.SystemClock(), nil, journal)
			if err != nil {
				t.Fatal(err)
			}
			if !journal {
				return in, nil
			}
			c := cfg
			c.Resume = resume
			m, leds, err := openWAL(ctx, c, names, quiet)
			if err != nil {
				t.Fatal(err)
			}
			in.attachWAL(m, leds)
			return in, m
		}
		drain := func(in *intake) []byte {
			done := make(chan []byte, 1)
			go func() {
				b, err := io.ReadAll(in)
				if err != nil {
					t.Errorf("read: %v", err)
				}
				done <- b
			}()
			select {
			case b := <-done:
				return b
			case <-time.After(20 * time.Second):
				t.Fatal("intake never drained")
				return nil
			}
		}

		in, m := open(false)
		var wg sync.WaitGroup
		for i, name := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dup := func(d delivery) {
					var de *DuplicateDelivery
					if err := in.append(ctx, name, d.id, d.body, true); !errors.As(err, &de) || de.Bytes != int64(len(d.body)) {
						t.Errorf("redelivery of %s: %v, want a duplicate of %d bytes", d.id, err, len(d.body))
					}
				}
				var accepted []delivery
				for _, d := range plan[i] {
					err := in.append(ctx, name, d.id, d.body, true)
					if int64(len(d.body)) > capBytes {
						if !errors.Is(err, ErrOversizedDelivery) {
							t.Errorf("%d-byte delivery into a %d-byte buffer: %v", len(d.body), capBytes, err)
						}
						continue
					}
					if err != nil {
						t.Errorf("append to %s: %v", name, err)
						return
					}
					// Nothing was recovered, so the bound must count exactly
					// the bytes of the extents not yet read.
					in.mu.Lock()
					src := in.byName[name]
					buffered, unread := src.buffered(), -src.pos
					for _, e := range src.ext {
						unread += e.n
					}
					in.mu.Unlock()
					if buffered != unread || unread > capBytes {
						t.Errorf("%s counts %d buffered bytes, holds %d unread, cap %d", name, buffered, unread, capBytes)
					}
					if d.id != "" {
						accepted = append(accepted, d)
						if d.redeliver {
							dup(d)
						}
					}
				}
				if err := in.completeSource(ctx, name); err != nil {
					t.Errorf("complete %s: %v", name, err)
				}
				for _, d := range accepted {
					dup(d)
				}
			}()
		}
		got := drain(in)
		wg.Wait()
		if !bytes.Equal(got, want) {
			t.Fatalf("drained %d bytes, want the %d-byte per-source concatenation", len(got), len(want))
		}
		if !journal {
			return
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		again, m := open(true)
		defer m.Close()
		if replay := drain(again); !bytes.Equal(replay, want) {
			t.Fatalf("resume drained %d bytes, want %d", len(replay), len(want))
		}
		for i := range names {
			if !maps.Equal(again.sources[i].seen, in.sources[i].seen) {
				t.Fatalf("%s: resumed dedup set %v, live %v", names[i], again.sources[i].seen, in.sources[i].seen)
			}
		}
	})
}
