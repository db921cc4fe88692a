package flightrec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/sim"
)

// maxFrameLen bounds a single frame so a corrupt length prefix cannot ask
// for gigabytes. Real frames are tens of bytes; trailers a few kilobytes.
const maxFrameLen = 16 << 20

// maxShards bounds the shard ids a recording may carry, so a corrupt id can
// neither index the per-shard tables negatively nor grow them without
// limit. Real worlds run one shard per region, far below it.
const maxShards = 1 << 16

// Reader decodes one flight recording sequentially. It mirrors the
// Recorder's delta and interning state. The shard count is implied by the
// frames, not the header, so the per-shard delta state is keyed by the
// shards frames actually name: a large id costs no more than a small one.
type Reader struct {
	br   *bufio.Reader
	strs []string
	meta map[string]string

	prev        map[int]delta
	prevEpochAt sim.Time
	index       uint64
	buf         []byte // the last frame body or header string read
}

// NewReader opens a recording: it validates the magic and version and
// reads the metadata block.
func NewReader(rd io.Reader) (*Reader, error) {
	r := &Reader{br: bufio.NewReaderSize(rd, 1<<16), prev: make(map[int]delta)}
	var m [4]byte
	if _, err := io.ReadFull(r.br, m[:]); err != nil {
		return nil, fmt.Errorf("flightrec: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("flightrec: not a flight recording (magic %q)", m[:])
	}
	ver, err := r.br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("flightrec: reading version: %w", err)
	}
	if ver == 0 || ver > version {
		return nil, fmt.Errorf("flightrec: unsupported container version %d (reader speaks <= %d)", ver, version)
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return nil, fmt.Errorf("flightrec: reading metadata count: %w", err)
	}
	// n is untrusted: the map grows per entry actually read, never from n.
	r.meta = make(map[string]string)
	for i := uint64(0); i < n; i++ {
		k, err := r.readRaw()
		if err != nil {
			return nil, fmt.Errorf("flightrec: reading metadata key: %w", err)
		}
		v, err := r.readRaw()
		if err != nil {
			return nil, fmt.Errorf("flightrec: reading metadata value: %w", err)
		}
		r.meta[k] = v
	}
	return r, nil
}

// Meta returns the run metadata from the header.
func (r *Reader) Meta() map[string]string { return r.meta }

func (r *Reader) readRaw() (string, error) {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return "", err
	}
	if n > maxFrameLen {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	b, err := r.read(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// read reads exactly n bytes into the reader's reused buffer, growing it
// only as bytes arrive, so a corrupt length prefix claims no more memory
// than the input behind it. The result is valid until the next read.
func (r *Reader) read(n uint64) ([]byte, error) {
	b := r.buf[:0]
	for uint64(len(b)) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, int(min(n-uint64(len(b)), uint64(max(len(b), 512)))))
		}
		m, err := io.ReadFull(r.br, b[len(b):min(uint64(cap(b)), n)])
		b = b[:len(b)+m]
		if err != nil {
			r.buf = b
			return nil, err
		}
	}
	r.buf = b
	return b, nil
}

// Next returns the next frame. A clean end of stream returns io.EOF; a
// stream cut mid-frame returns a truncation error.
func (r *Reader) Next() (Frame, error) {
	n, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return Frame{}, io.EOF
	}
	if err != nil {
		return Frame{}, fmt.Errorf("flightrec: reading frame length: %w", err)
	}
	if n == 0 || n > maxFrameLen {
		return Frame{}, fmt.Errorf("flightrec: frame length %d out of range", n)
	}
	body, err := r.read(n)
	if err != nil {
		return Frame{}, fmt.Errorf("flightrec: truncated frame (%d bytes wanted): %w", n, err)
	}
	d := &dec{b: body, strs: &r.strs}
	f := r.decodeBody(d)
	if d.err != nil {
		return Frame{}, d.err
	}
	f.Index = r.index
	r.index++
	return f, nil
}

// shard decodes a frame's shard id, failing on ids at or above maxShards.
func (d *dec) shard() int {
	id := d.u()
	if id >= maxShards {
		d.fail("shard id %d out of range", id)
		return 0
	}
	return int(id)
}

// delta is one shard's previous event time and sequence number.
type delta struct {
	at  sim.Time
	seq uint64
}

func (r *Reader) decodeBody(d *dec) Frame {
	if len(d.b) == 0 {
		d.fail("empty frame body")
		return Frame{}
	}
	kind := Kind(d.b[0])
	d.pos = 1
	switch kind {
	case KindEvent:
		shard := d.shard()
		topic := d.s()
		prev := r.prev[shard]
		at := prev.at + sim.Time(d.u())
		seq := prev.seq + d.u()
		p := d.payload()
		if d.err != nil {
			return Frame{}
		}
		r.prev[shard] = delta{at: at, seq: seq}
		return Frame{Kind: kind, Shard: shard, Topic: topic, At: at, Seq: seq, Payload: p}
	case KindSnapshot:
		shard := d.shard()
		prev := r.prev[shard]
		at := prev.at + sim.Time(d.u())
		sn := Snap{Avail: d.f(), LinksDown: int(d.i()), OpenTix: int(d.i()), Fired: d.u()}
		if d.err != nil {
			return Frame{}
		}
		r.prev[shard] = delta{at: at, seq: prev.seq}
		return Frame{Kind: kind, Shard: shard, At: at, Snap: sn}
	case KindState:
		shard := d.shard()
		n := d.count("state entry")
		var kvs []KV
		for i := uint64(0); i < n && d.err == nil; i++ {
			kv := KV{Key: d.s(), kind: kvKind(d.u())}
			switch kv.kind {
			case kvInt:
				kv.i = d.i()
			case kvFloat:
				kv.f = d.f()
			case kvStr:
				kv.s = d.s()
			default:
				d.fail("unknown state value kind %d", kv.kind)
			}
			kvs = append(kvs, kv)
		}
		if d.err != nil {
			return Frame{}
		}
		return Frame{Kind: kind, Shard: shard, State: kvs}
	case KindEpoch:
		epoch := d.u()
		at := r.prevEpochAt + sim.Time(d.u())
		if d.err != nil {
			return Frame{}
		}
		r.prevEpochAt = at
		return Frame{Kind: kind, Epoch: epoch, At: at}
	case KindTrailer:
		frames := d.u()
		fp := uint64(0)
		if d.err == nil {
			if d.pos+8 > len(d.b) {
				d.fail("truncated trailer fingerprint")
			} else {
				fp = binary.LittleEndian.Uint64(d.b[d.pos:])
				d.pos += 8
			}
		}
		render := d.raw()
		if d.err != nil {
			return Frame{}
		}
		return Frame{Kind: kind, Frames: frames, Fingerprint: fp, Render: render}
	default:
		// A frame kind this reader predates: keep the body so diffs can
		// still compare streams, and keep going.
		return Frame{Kind: kind, Raw: append([]byte(nil), d.b[1:]...)}
	}
}

// Result is a replayed recording: its metadata, the summary re-derived
// from the decoded frames, and the trailer the live run wrote.
type Result struct {
	Meta    map[string]string
	Summary *Summary
	Trailer *Frame // nil when the stream ended without one (interrupted run)
	Frames  uint64 // decoded frames, trailer excluded
}

// Match reports whether the replayed fingerprint equals the live one — the
// lossless-round-trip check.
func (res *Result) Match() bool {
	return res.Trailer != nil && res.Summary.Fingerprint() == res.Trailer.Fingerprint
}

// Replay decodes an entire recording into a fresh Summary without any
// simulation. Every frame flows through the same accumulator the live
// Recorder used, so Match proves the on-disk form carries everything the
// report derivation consumes.
func Replay(rd io.Reader) (*Result, error) {
	rr, err := NewReader(rd)
	if err != nil {
		return nil, err
	}
	res := &Result{Meta: rr.Meta(), Summary: newSummary(rr.Meta())}
	for {
		f, err := rr.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return nil, err
		}
		if f.Kind == KindTrailer {
			t := f
			res.Trailer = &t
			continue
		}
		res.Summary.Add(f)
		res.Frames++
	}
}
