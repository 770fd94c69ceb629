package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the gzipped profile.proto that runtime/pprof
// writes: enough of the wire format (varints and length-delimited
// fields) to recover every sample's call stack as function names and
// its CPU nanoseconds. Field numbers are from
// github.com/google/pprof/proto/profile.proto.

// stackSample is one profile sample: its stack, leaf first, and the
// value of the profile's last sample type (CPU nanoseconds for a CPU
// profile).
type stackSample struct {
	stack []string
	value int64
}

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

var errTruncated = errors.New("pprof: truncated message")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next reads one field: its number, and either its varint value or its
// length-delimited payload. Fixed-width fields are skipped over.
func (p *pbuf) next() (field int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errTruncated
			}
			payload, p.b = p.b[:n], p.b[n:]
			if payload == nil {
				payload = []byte{} // nil means "varint" to callers
			}
		}
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, v, payload, err
}

func (p *pbuf) skip(n int) error {
	if len(p.b) < n {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// repeated appends a repeated integer field's values, packed or not.
func repeated(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	p := pbuf{payload}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// decodeProfile parses a gzipped profile.proto into stack samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost inlined frame first
		funcNames = map[uint64]uint64{}   // function id → string-table index of its name
		strs      []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		field, _, payload, err := p.next()
		if err != nil {
			return nil, err
		}
		m := pbuf{payload}
		switch field {
		case 2: // Sample
			var s rawSample
			for len(m.b) > 0 {
				f, v, pl, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, v, pl)
				case 2:
					s.values, err = repeated(s.values, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(m.b) > 0 {
				f, v, pl, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{pl}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if i := funcNames[fn]; i < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// internalPrefix is where the program's modules live; the benchmark's
// own frames are main.* under go run and its import path under go test.
const (
	internalPrefix = "dbo/internal/"
	benchPrefix    = "dbo/cmd/dbo-load."
)

// chargeTo names who pays for one CPU sample: the leaf-most frame on its
// stack that belongs to a dbo/internal/<module> or to the benchmark
// itself. So mallocgc under wire.Decode is wire's, write(2) under
// Endpoint.Send is transport's, and the checker running inside an
// OnForward callback is the benchmark's, not core's. Stacks that never
// enter either are the garbage collector's or the scheduler's.
func chargeTo(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, benchPrefix) {
			return "bench"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.gcAssistAlloc"):
			return "runtime.gc"
		case fn == "runtime.schedule", fn == "runtime.mcall", fn == "runtime.park_m",
			fn == "runtime.findRunnable", fn == "runtime.mstart", fn == "runtime.goexit0":
			return "runtime.sched"
		}
	}
	return "other"
}

// inSyscall reports whether the sample's leaf is a system call. This
// cuts across chargeTo: the share it yields is the kernel-bound part of
// whichever module made the call.
func inSyscall(stack []string) bool {
	if len(stack) == 0 {
		return false
	}
	leaf := stack[0]
	return strings.HasPrefix(leaf, "syscall.") || strings.HasPrefix(leaf, "internal/runtime/syscall.") ||
		strings.HasPrefix(leaf, "runtime/internal/syscall.") || leaf == "runtime.futex" ||
		strings.HasPrefix(leaf, "runtime.epoll") || leaf == "runtime.netpoll" || leaf == "runtime.usleep"
}
