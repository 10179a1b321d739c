package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto). It keeps only
// what layer attribution needs: sample types, and each sample's values
// and stack of function names.

// profile is a decoded pprof profile.
type profile struct {
	types   []string // sample value types, e.g. "samples", "cpu"
	samples []sample
}

// sample is one profile sample: its values (one per type) and its
// stack, leaf first, with inlined frames expanded.
type sample struct {
	values []int64
	stack  []string
}

// valueIndex returns the index of the named sample type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.types {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q values (types %v)", name, p.types)
}

// pbField is one decoded protobuf field: varint fields set num, length-
// delimited ones set buf.
type pbField struct {
	tag  int
	wire int
	num  uint64
	buf  []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.num, n = binary.Uvarint(b); n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			f.num, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length")
			}
			f.buf, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			f.num, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints appends a repeated varint field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.num), nil
	}
	b := f.buf
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped (or raw) pprof profile.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	fields, err := pbFields(data)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		typeIdx  []uint64
		rawLocs  [][]uint64              // per sample: location IDs, leaf first
		rawVals  [][]int64               // per sample: values, one per type
		locFuncs = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcName = map[uint64]uint64{}   // function ID -> name string index
	)
	for _, f := range fields {
		switch f.tag {
		case 6: // string_table
			strs = append(strs, string(f.buf))
		case 1: // sample_type
			vt, err := pbFields(f.buf)
			if err != nil {
				return nil, fmt.Errorf("profile sample_type: %w", err)
			}
			for _, v := range vt {
				if v.tag == 1 {
					typeIdx = append(typeIdx, v.num)
				}
			}
		case 2: // sample
			sf, err := pbFields(f.buf)
			if err != nil {
				return nil, fmt.Errorf("profile sample: %w", err)
			}
			var locs, vals []uint64
			for _, v := range sf {
				switch v.tag {
				case 1:
					locs, err = pbUints(locs, v)
				case 2:
					vals, err = pbUints(vals, v)
				}
				if err != nil {
					return nil, fmt.Errorf("profile sample: %w", err)
				}
			}
			iv := make([]int64, len(vals))
			for i, v := range vals {
				iv[i] = int64(v)
			}
			rawLocs, rawVals = append(rawLocs, locs), append(rawVals, iv)
		case 4: // location
			lf, err := pbFields(f.buf)
			if err != nil {
				return nil, fmt.Errorf("profile location: %w", err)
			}
			var id uint64
			var fns []uint64
			for _, v := range lf {
				switch v.tag {
				case 1:
					id = v.num
				case 4: // line
					lines, err := pbFields(v.buf)
					if err != nil {
						return nil, fmt.Errorf("profile line: %w", err)
					}
					for _, l := range lines {
						if l.tag == 1 {
							fns = append(fns, l.num)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			ff, err := pbFields(f.buf)
			if err != nil {
				return nil, fmt.Errorf("profile function: %w", err)
			}
			var id, name uint64
			for _, v := range ff {
				switch v.tag {
				case 1:
					id = v.num
				case 2:
					name = v.num
				}
			}
			funcName[id] = name
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.types = append(p.types, str(t))
	}
	for i, locs := range rawLocs {
		s := sample{values: rawVals[i]}
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// namedLayers are the layers the benchmark reports; samples charged
// elsewhere (packet, scheme, mptcp, the benchmark itself) count as
// unattributed.
var namedLayers = []string{
	"sim", "sim.shard", "fabric", "nic", "gro", "tcp", "vswitch", "workload",
	"metrics", "cluster", "controller", "topo", "runtime",
}

const internalPrefix = "presto/internal/"

// moduleOf returns the presto/internal module a function belongs to
// ("gro" for presto/internal/gro.(*Presto).Flush, "workload" for
// presto/internal/workload/spec.Compile).
func moduleOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// isShardFunc reports whether a sim function belongs to the shard
// group's machinery (barrier, merge, journaling, Send) rather than to
// the engine.
func isShardFunc(fn string) bool {
	rest := strings.TrimPrefix(fn, internalPrefix+"sim.")
	for _, p := range []string{"(*ShardGroup).", "(*shard).", "ShardGroup.", "shard.", "NewShardGroup"} {
		if strings.HasPrefix(rest, p) {
			return true
		}
	}
	return false
}

// isEngineLoop reports whether a sim function is the engine's event
// loop, below which callbacks run: a walk up the stack that reaches it
// has left whatever the shard group was doing.
func isEngineLoop(fn string) bool {
	rest := strings.TrimPrefix(fn, internalPrefix+"sim.")
	switch rest {
	case "(*Engine).runWindow", "(*Engine).run", "(*Engine).Run", "(*Engine).RunAll":
		return true
	}
	return false
}

// layerOf charges a sample, given its stack leaf first, to a layer:
// the module of the innermost presto/internal frame, so runtime frames
// such as mapaccess1 or mallocgc go to their presto caller. Engine time
// spent under a ShardGroup or shard method is split out as
// "sim.shard". A stack with no presto frame at all is "runtime"; one
// whose only presto frames are the benchmark's own is "other".
func layerOf(stack []string) string {
	for i, fn := range stack {
		mod, ok := moduleOf(fn)
		if !ok {
			continue
		}
		if mod != "sim" {
			return mod
		}
		for _, up := range stack[i:] {
			m, ok := moduleOf(up)
			if !ok {
				continue
			}
			if m != "sim" || isEngineLoop(up) {
				break
			}
			if isShardFunc(up) {
				return "sim.shard"
			}
		}
		return "sim"
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "presto") || strings.HasPrefix(fn, "main.") {
			return "other"
		}
	}
	return "runtime"
}

// byLayer sums one value type of a profile per layer and returns the
// sums and their total.
func byLayer(p *profile, valueType string) (map[string]int64, int64, error) {
	vi, err := p.valueIndex(valueType)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		out[layerOf(s.stack)] += s.values[vi]
		total += s.values[vi]
	}
	return out, total, nil
}
