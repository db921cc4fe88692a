// Package flightrec is the durable flight recorder for deterministic runs:
// a compact binary, self-describing, delta-compressed capture of the full
// event stream — every bus event on every topic, journal entries, periodic
// metric snapshots, end-of-run state, and run metadata (seed, level,
// config). The in-memory rings (core.journal, the daemon's eventRing) drop
// history; a recording keeps all of it, and because the simulation is
// deterministic, capture-once/analyze-many works: a recording replays into
// the exact report the live run produced, without re-simulating.
//
// File layout:
//
//	header:  magic "SMFR", version byte, metadata (sorted key/value strings)
//	frames:  uvarint length prefix, then kind byte + kind-specific body
//	trailer: a final frame carrying the frame count, the live summary's
//	         fingerprint and its rendered form
//
// Frames are delta-compressed per shard: event times and sequence numbers
// are encoded as deltas against the previous frame of the same shard, and
// every string (topic, payload kind, field name, link name) is interned
// into a file-wide table, so steady-state events cost a few bytes each.
//
// An event's payload is its kind and a counted list of fields, each keyed
// by its interned name: the bus.Recordable description the payload type
// writes once. Schema evolution rules (see DESIGN.md):
//
//   - The version byte covers the container; it bumps when the framing or
//     the field encoding changes, never for payload growth.
//   - Payload kinds and field names are plain strings: a new kind or field
//     needs no reader change, since every kind decodes into the same
//     Payload. A field that is absent reads as zero, and writers omit
//     zero values, which doubles as compression.
//   - Frame kinds are append-only; a reader passes unknown ones through as
//     raw bytes.
package flightrec

import (
	"encoding/binary"
	"fmt"
	"math"
)

var magic = [4]byte{'S', 'M', 'F', 'R'}

// version is the container version. See the schema-evolution rules above:
// payload growth must not bump it. Version 2 keys payload fields by name.
const version = 2

// enc builds header and frame bodies. One enc lives for the whole file:
// the string intern table spans frames, so a topic, field or link name
// costs its bytes once and a one-or-two-byte reference forever after — the
// bulk of the compression alongside the per-shard time/seq deltas.
type enc struct {
	b    []byte
	strs map[string]uint64
}

func newEnc() *enc { return &enc{strs: make(map[string]uint64)} }

func (e *enc) u(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) f(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

// raw writes a length-prefixed string without interning (header metadata,
// the trailer render).
func (e *enc) raw(s string) {
	e.u(uint64(len(s)))
	e.b = append(e.b, s...)
}

// ref returns s's table reference: id+1 for a known string, or 0 for a new
// one, which takes the next table id and whose raw bytes the caller writes
// right after the reference.
func (e *enc) ref(s string) (ref uint64, known bool) {
	if id, ok := e.strs[s]; ok {
		return id + 1, true
	}
	e.strs[s] = uint64(len(e.strs))
	return 0, false
}

// s writes an interned string.
func (e *enc) s(s string) {
	ref, known := e.ref(s)
	e.u(ref)
	if !known {
		e.raw(s)
	}
}

// payload writes a payload: its interned kind, the field count, then each
// field as one uvarint key, its name's reference shifted over its two-bit
// type, and the value — a uvarint, a zigzag varint, an interned string, or
// nothing for a bool, which is only ever true.
func (e *enc) payload(p Payload) {
	e.s(p.Kind)
	e.u(uint64(len(p.Fields)))
	for _, f := range p.Fields {
		ref, known := e.ref(f.Name)
		e.u(ref<<2 | uint64(f.Type))
		if !known {
			e.raw(f.Name)
		}
		switch f.Type {
		case FieldUint:
			e.u(f.Num)
		case FieldInt:
			e.i(int64(f.Num))
		case FieldStr:
			e.s(f.Str)
		}
	}
}

// dec decodes one frame body. The string table is shared across frames and
// owned by the Reader; errors are sticky so call sites stay linear.
type dec struct {
	b    []byte
	pos  int
	strs *[]string
	err  error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("flightrec: "+format, args...)
	}
}

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *dec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *dec) f() float64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.b) {
		d.fail("truncated float at offset %d", d.pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.pos:]))
	d.pos += 8
	return v
}

func (d *dec) raw() string {
	n := d.u()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.pos) {
		d.fail("truncated string (%d bytes) at offset %d", n, d.pos)
		return ""
	}
	s := string(d.b[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// intern resolves a string reference written by enc.ref, reading the raw
// bytes of a new string.
func (d *dec) intern(ref uint64) string {
	if d.err != nil {
		return ""
	}
	if ref == 0 {
		s := d.raw()
		if d.err == nil {
			*d.strs = append(*d.strs, s)
		}
		return s
	}
	if ref-1 >= uint64(len(*d.strs)) {
		d.fail("string id %d beyond intern table size %d", ref-1, len(*d.strs))
		return ""
	}
	return (*d.strs)[ref-1]
}

func (d *dec) s() string { return d.intern(d.u()) }

// count reads a list length, failing when the list could not fit in the
// bytes left (every entry takes at least one), so no claim outgrows the
// input.
func (d *dec) count(what string) uint64 {
	n := d.u()
	if d.err == nil && n > uint64(len(d.b)-d.pos) {
		d.fail("%s count %d beyond the %d bytes left", what, n, len(d.b)-d.pos)
	}
	return n
}

// payload decodes what enc.payload wrote.
func (d *dec) payload() Payload {
	p := Payload{Kind: d.s()}
	n := d.count("field")
	if n > 0 && d.err == nil {
		p.Fields = make([]Field, 0, n) // n is bounded by the bytes left
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		key := d.u()
		f := Field{Type: FieldType(key & 3), Name: d.intern(key >> 2)}
		switch f.Type {
		case FieldUint:
			f.Num = d.u()
		case FieldInt:
			f.Num = uint64(d.i())
		case FieldStr:
			f.Str = d.s()
		case FieldBool:
			f.Num = 1
		}
		p.Fields = append(p.Fields, f)
	}
	return p
}
