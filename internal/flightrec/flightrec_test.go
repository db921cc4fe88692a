package flightrec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

// genState holds the mirror state a generator keeps so it can predict the
// exact frame sequence the recorder will put on disk.
type genState struct {
	rng     *rand.Rand
	shards  int
	at      []sim.Time
	seq     []uint64
	epochAt sim.Time
	epoch   uint64

	rec      *Recorder
	pending  [][]Frame // mirror of the recorder's per-shard buffers
	expected []Frame
}

var strPool = []string{"", "leaf0:1<->spine0:3", "unit-3", "tech-1", "flap burst",
	"needs-human", "row 2 rack 7", "héllo wörld", "a\nb", strings.Repeat("x", 300)}

func (g *genState) str() string { return strPool[g.rng.IntN(len(strPool))] }

// Payload kinds, field names and string values the generator draws from:
// real kinds and ticket lifecycle names, so the summary's by-name reads
// run, plus kinds and names no payload type writes.
var (
	kindPool  = []string{"alert", "ticket", "dispatch", "outcome", "journal", "generic", "frobnicate"}
	namePool  = []string{"kind", "id", "link", "reactive", "robot", "fixed", "at", "detail", "future-field"}
	valuePool = []string{"opened", "resolved", "cancelled", "deduped"}
)

// payload draws a random kind and field set. Values are never zero:
// writers drop zero values, so a capture of this payload is the payload.
func (g *genState) payload() Payload {
	p := Payload{Kind: kindPool[g.rng.IntN(len(kindPool))]}
	for n := g.rng.IntN(7); n > 0; n-- {
		f := Field{Name: namePool[g.rng.IntN(len(namePool))], Type: FieldType(g.rng.IntN(4))}
		switch f.Type {
		case FieldUint:
			f.Num = 1 + g.rng.Uint64N(1<<40)
		case FieldInt:
			f.Num = uint64(g.rng.Int64N(1<<41) - 1<<40)
			if f.Num == 0 {
				f.Num = 1
			}
		case FieldStr:
			if f.Str = g.str(); f.Str == "" {
				f.Str = valuePool[g.rng.IntN(len(valuePool))]
			}
		case FieldBool:
			f.Num = 1
		}
		p.Fields = append(p.Fields, f)
	}
	return p
}

func (g *genState) kvs() []KV {
	n := g.rng.IntN(6)
	var kvs []KV // nil when empty, as decoded
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		switch g.rng.IntN(3) {
		case 0:
			kvs = append(kvs, KInt(key, g.rng.Int64N(1<<50)-(1<<49)))
		case 1:
			kvs = append(kvs, KFloat(key, (g.rng.Float64()-0.5)*1e9))
		default:
			kvs = append(kvs, KStr(key, g.str()))
		}
	}
	return kvs
}

// add routes a frame the way the recorder does, mirroring the buffering so
// g.expected is the exact on-disk order.
func (g *genState) add(f Frame) {
	if g.shards == 1 {
		g.expected = append(g.expected, f)
		return
	}
	g.pending[f.Shard] = append(g.pending[f.Shard], f)
}

func (g *genState) barrier() {
	g.epochAt += sim.Time(g.rng.Int64N(1 << 30))
	g.epoch++
	for i := range g.pending {
		g.expected = append(g.expected, g.pending[i]...)
		g.pending[i] = nil
	}
	g.expected = append(g.expected, Frame{Kind: KindEpoch, Epoch: g.epoch, At: g.epochAt})
	g.rec.Barrier(g.epoch, g.epochAt)
}

func (g *genState) step() {
	shard := g.rng.IntN(g.shards)
	switch g.rng.IntN(10) {
	case 0:
		g.at[shard] += sim.Time(g.rng.Int64N(1 << 30))
		f := Frame{Kind: KindSnapshot, Shard: shard, At: g.at[shard],
			Snap: Snap{Avail: g.rng.Float64(), LinksDown: g.rng.IntN(10),
				OpenTix: g.rng.IntN(20), Fired: g.rng.Uint64N(1 << 40)}}
		g.add(f)
		g.rec.Snapshot(shard, f.At, f.Snap)
	case 1:
		f := Frame{Kind: KindState, Shard: shard, State: g.kvs()}
		g.add(f)
		g.rec.State(shard, f.State)
	case 2:
		if g.shards > 1 {
			g.barrier()
			return
		}
		fallthrough
	default:
		g.at[shard] += sim.Time(g.rng.Int64N(1 << 30))
		g.seq[shard] += g.rng.Uint64N(100)
		f := Frame{Kind: KindEvent, Shard: shard, At: g.at[shard], Seq: g.seq[shard],
			Topic:   []string{"sense.alert", "triage.ticket", "act.dispatch", "journal.decision"}[g.rng.IntN(4)],
			Payload: g.payload()}
		g.add(f)
		g.rec.Tap(shard, bus.Event{Seq: f.Seq, At: f.At, Topic: bus.Topic(f.Topic), Payload: f.Payload})
	}
}

// record generates one deterministic random recording and returns the
// bytes, the expected frame sequence, and the live summary.
func record(t *testing.T, seed uint64) ([]byte, []Frame, *Summary) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xf11847))
	shards := 1 + rng.IntN(4)
	meta := map[string]string{"seed": fmt.Sprint(seed), "kind": "property", "z": "last", "a": "first"}
	var buf bytes.Buffer
	rec, err := New(&buf, meta, shards)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g := &genState{rng: rng, shards: shards, at: make([]sim.Time, shards),
		seq: make([]uint64, shards), rec: rec, pending: make([][]Frame, shards)}
	steps := 100 + rng.IntN(300)
	for i := 0; i < steps; i++ {
		g.step()
	}
	if shards > 1 {
		// Close flushes remaining buffers in shard order without a barrier.
		for i := range g.pending {
			g.expected = append(g.expected, g.pending[i]...)
			g.pending[i] = nil
		}
	}
	sum, err := rec.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := range g.expected {
		g.expected[i].Index = uint64(i)
	}
	return buf.Bytes(), g.expected, sum
}

// TestRoundTripProperty is the record ≡ decode property test: randomized
// event mixes across randomized shard counts, for several seeds, must
// decode to exactly the frames that went in, and replay must reproduce the
// live summary fingerprint.
func TestRoundTripProperty(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			data, want, liveSum := record(t, seed)

			rd, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("NewReader: %v", err)
			}
			var got []Frame
			var trailer *Frame
			for {
				f, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("Next after %d frames: %v", len(got), err)
				}
				if f.Kind == KindTrailer {
					tf := f
					trailer = &tf
					continue
				}
				got = append(got, f)
			}
			if len(got) != len(want) {
				t.Fatalf("decoded %d frames, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("frame %d mismatch:\n got %#v (%s)\nwant %#v (%s)",
						i, got[i], got[i], want[i], want[i])
				}
			}
			if trailer == nil {
				t.Fatal("no trailer frame")
			}
			if trailer.Frames != uint64(len(want)) {
				t.Fatalf("trailer frames=%d, want %d", trailer.Frames, len(want))
			}

			res, err := Replay(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if !res.Match() {
				t.Fatalf("replay fingerprint %016x != trailer %016x\nreplay render:\n%s\ntrailer render:\n%s",
					res.Summary.Fingerprint(), res.Trailer.Fingerprint,
					res.Summary.Render(), res.Trailer.Render)
			}
			if res.Summary.Render() != liveSum.Render() {
				t.Fatal("replayed render differs from live summary render")
			}

			// Same seed, fresh recorder: the codec itself must be
			// deterministic down to the bytes.
			data2, _, _ := record(t, seed)
			if !bytes.Equal(data, data2) {
				t.Fatal("re-recording the same sequence produced different bytes")
			}

			// Self-diff must find no divergence.
			div, err := Diff(bytes.NewReader(data), bytes.NewReader(data2))
			if err != nil {
				t.Fatalf("Diff: %v", err)
			}
			if div != nil {
				t.Fatalf("self-diff diverged: %v", div)
			}
		})
	}
}

// TestTapConvertsBusPayloads drives the recorder through the real bus-tap
// surface with live payload types: each decodes to its capture, renders
// as the live payload does, and reads back by field name.
func TestTapConvertsBusPayloads(t *testing.T) {
	var buf bytes.Buffer
	rec, err := New(&buf, map[string]string{"seed": "7"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := []bus.Event{
		{Seq: 3, At: 10 * sim.Minute, Topic: bus.TopicAlert,
			Payload: bus.Alert{Kind: bus.AlertLinkDown, At: 10 * sim.Minute, Detail: "x y"}},
		{Seq: 4, At: 11 * sim.Minute, Topic: bus.TopicTicket,
			Payload: bus.TicketEvent{Kind: bus.TicketOpened, ID: 0, Reactive: true}},
		{Seq: 9, At: 12 * sim.Minute, Topic: bus.Topic("custom.topic"),
			Payload: struct{ X int }{42}},
	}
	for _, ev := range live {
		rec.Tap(0, ev)
	}
	if _, err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got []Payload
	for _, ev := range live {
		f, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq != ev.Seq || f.At != ev.At || f.Topic != string(ev.Topic) {
			t.Fatalf("envelope decoded as seq=%d at=%v topic=%s", f.Seq, f.At, f.Topic)
		}
		if want := Capture(ev.Payload); !reflect.DeepEqual(f.Payload, want) {
			t.Fatalf("decoded %#v, captured %#v", f.Payload, want)
		}
		got = append(got, f.Payload)
	}
	if s, want := got[0].String(), bus.Render(live[0].Payload); s != want || s != `alert{kind=link-down at=600000000000 detail="x y"}` {
		t.Fatalf("alert renders %q, live %q", s, want)
	}
	if al := got[0]; al.Str("kind") != "link-down" || al.Str("detail") != "x y" || al.Str("link") != "" {
		t.Fatalf("alert fields %#v", al)
	}
	if tk := got[1]; tk.Kind != "ticket" || !tk.Bool("reactive") || tk.Int("id") != 0 {
		t.Fatalf("ticket decoded as %#v", tk)
	}
	if gen := got[2]; gen.Kind != "generic" || gen.Str("type") != "struct { X int }" || gen.Str("text") != "{42}" {
		t.Fatalf("generic decoded as %#v", gen)
	}
}

// TestSchemaEvolution checks the growth paths the format promises: a kind
// no payload type writes today and a known kind grown new fields both
// decode like any other, and the intern table stays in sync across the
// names and values they introduce.
func TestSchemaEvolution(t *testing.T) {
	var buf bytes.Buffer
	rec, err := New(&buf, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	delta := int64(-4)
	future := Payload{Kind: "frobnicate", Fields: []Field{
		{Name: "count", Type: FieldUint, Num: 7},
		{Name: "tag", Type: FieldStr, Str: "zap"},
		{Name: "delta", Type: FieldInt, Num: uint64(delta)},
		{Name: "armed", Type: FieldBool, Num: 1},
	}}
	grown := Payload{Kind: "alert", Fields: []Field{
		{Name: "kind", Type: FieldStr, Str: "link-recovered"},
		{Name: "link", Type: FieldStr, Str: "linkname"},
		{Name: "future-field", Type: FieldStr, Str: "future-value"},
		{Name: "detail", Type: FieldStr, Str: "detail"},
	}}
	// The third frame reuses interned names and values from the first two.
	reuse := Payload{Kind: "frobnicate", Fields: []Field{
		{Name: "future-field", Type: FieldStr, Str: "zap"},
		{Name: "tag", Type: FieldStr, Str: "future-value"},
	}}
	for i, p := range []Payload{future, grown, reuse} {
		rec.Tap(0, bus.Event{Seq: uint64(i), At: sim.Time(i) * sim.Hour, Topic: "t", Payload: p})
	}
	live, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}

	res, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match() || !strings.Contains(live.Render(), "work alerts=1 ") || !strings.Contains(live.Render(), "generic=2") {
		t.Fatalf("replay match %v; summary:\n%s", res.Match(), live.Render())
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []Payload{future, grown, reuse} {
		f, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f.Payload, want) {
			t.Fatalf("decoded %#v, want %#v", f.Payload, want)
		}
	}
	if s := future.String(); s != "frobnicate{count=7 tag=zap delta=-4 armed}" {
		t.Fatalf("future kind renders %q", s)
	}
}

// TestUnknownFrameKind hand-crafts a file containing a frame kind from the
// future; the reader must carry it as raw bytes and keep going.
func TestUnknownFrameKind(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(version)
	buf.WriteByte(0)                        // no metadata
	buf.Write([]byte{4, 99, 0xa, 0xb, 0xc}) // len=4, kind=99, 3 payload bytes
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != Kind(99) || !bytes.Equal(f.Raw, []byte{0xa, 0xb, 0xc}) {
		t.Fatalf("unknown frame decoded as %#v", f)
	}
	if s := f.String(); s != "kind(99) len=3" {
		t.Fatalf("unknown frame render %q", s)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("want EOF after unknown frame, got %v", err)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(version + 1)
	buf.WriteByte(0)
	if _, err := NewReader(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("future container version accepted")
	}
}

// corruptRecording is a valid header (no metadata) followed by one frame
// with the given body.
func corruptRecording(body ...byte) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(version)
	buf.WriteByte(0) // no metadata
	buf.Write(binary.AppendUvarint(nil, uint64(len(body))))
	buf.Write(body)
	return buf.Bytes()
}

// header is a recording's magic and version followed by the given bytes.
func header(rest ...byte) []byte {
	return append(append(magic[:len(magic):len(magic)], version), rest...)
}

// Corrupt counts in a recording must surface as errors: never a panic,
// and never an allocation sized by the claim rather than by the input.
func TestReaderRejectsCorruptCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<63)
	declared := binary.AppendUvarint(nil, 15<<20) // 15 MiB, under maxFrameLen
	cases := map[string][]byte{
		// A metadata block claiming 16M entries in a 9-byte file.
		"metadata count 1<<24": header(binary.AppendUvarint(nil, 1<<24)...),
		// One metadata key declared 15 MiB long, with no bytes behind it.
		"metadata string 15 MiB": header(append([]byte{1}, declared...)...),
		// A frame declared 15 MiB long, with no bytes behind it.
		"frame body 15 MiB": header(append([]byte{0}, declared...)...),
		// An event payload claiming more fields than its body has bytes.
		"event field count beyond body": corruptRecording(append([]byte{byte(KindEvent), 0, 0, 1, 't', 0, 0, 0, 1, 'k'},
			binary.AppendUvarint(nil, 1<<40)...)...),
		// Shard 1<<63 converted to int is negative and would index the
		// per-shard tables out of range.
		"event shard 1<<63":    corruptRecording(append([]byte{byte(KindEvent)}, huge...)...),
		"snapshot shard 1<<63": corruptRecording(append([]byte{byte(KindSnapshot)}, huge...)...),
		"state shard 1<<63":    corruptRecording(append(append([]byte{byte(KindState)}, huge...), 0)...),
		// A large positive shard would grow the tables to match it.
		"event shard above limit": corruptRecording(append([]byte{byte(KindEvent)},
			binary.AppendUvarint(nil, maxShards)...)...),
		// A state frame claiming 16M entries in a few bytes of body.
		"state count beyond body": corruptRecording(append([]byte{byte(KindState), 0},
			binary.AppendUvarint(nil, maxFrameLen)...)...),
	}
	for name, want := range map[string]int{"event shard 1<<63": 18, "metadata count 1<<24": 9,
		"metadata string 15 MiB": 10, "frame body 15 MiB": 10} {
		if got := len(cases[name]); got != want {
			t.Fatalf("%s recording is %d bytes, want %d", name, got, want)
		}
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rd, err := NewReader(bytes.NewReader(data))
			var f Frame
			if err == nil {
				f, err = rd.Next()
			}
			runtime.ReadMemStats(&after)
			if err == nil || err == io.EOF {
				t.Fatalf("corrupt recording decoded as %#v, err %v", f, err)
			}
			// The reader's fixed 64 KiB buffer plus small change; the
			// claimed counts would have cost megabytes to gigabytes.
			if n := after.TotalAlloc - before.TotalAlloc; n > 256<<10 {
				t.Fatalf("decoding a %d-byte recording allocated %d bytes", len(data), n)
			}
			if _, err := Replay(bytes.NewReader(data)); err == nil {
				t.Fatal("Replay accepted the corrupt recording")
			}
		})
	}
}

func TestTruncatedRecording(t *testing.T) {
	data, _, _ := record(t, 3)
	cut := data[:len(data)-7]
	rd, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := rd.Next()
		if err == io.EOF {
			t.Fatal("truncated stream read cleanly to EOF")
		}
		if err != nil {
			return // truncation surfaced as an explicit error
		}
	}
}

// TestDiffFindsFirstDivergence records two streams sharing a prefix and
// checks the locator lands exactly on the first differing frame.
func TestDiffFindsFirstDivergence(t *testing.T) {
	mk := func(detail string, extra bool) []byte {
		var buf bytes.Buffer
		rec, err := New(&buf, map[string]string{"seed": detail}, 1)
		if err != nil {
			t.Fatal(err)
		}
		rec.Tap(0, bus.Event{At: sim.Minute, Seq: 1, Topic: "t",
			Payload: bus.Alert{Kind: bus.AlertLinkFlapping}})
		rec.Barrier(1, sim.Hour)
		rec.Tap(0, bus.Event{At: 2 * sim.Hour, Seq: 2, Topic: "t",
			Payload: bus.Alert{Kind: bus.AlertLinkFlapping, Detail: detail}})
		if extra {
			rec.Tap(0, bus.Event{At: 3 * sim.Hour, Seq: 3, Topic: "t",
				Payload: bus.Alert{Kind: bus.AlertLinkRecovered}})
		}
		if _, err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	a, b := mk("same", false), mk("different", false)
	div, err := Diff(bytes.NewReader(a), bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("differing recordings diffed as identical")
	}
	if div.Index != 2 || div.Epoch != 1 {
		t.Fatalf("divergence located at frame %d epoch %d, want frame 2 epoch 1", div.Index, div.Epoch)
	}
	if !strings.Contains(div.A, "same") || !strings.Contains(div.B, "different") {
		t.Fatalf("divergence renders: %q vs %q", div.A, div.B)
	}
	if !strings.Contains(div.String(), "first divergence at frame 2") {
		t.Fatalf("locator text %q", div.String())
	}

	// Prefix case: stream a ends early.
	short, long := mk("same", false), mk("same", true)
	div, err = Diff(bytes.NewReader(short), bytes.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	// Frames 0..2 match; frame 3 is a's trailer vs b's extra event.
	if div == nil || div.Reason != "frame mismatch" || div.Index != 3 {
		t.Fatalf("prefix diff: %v", div)
	}

	// Metadata-only differences are not divergence.
	div, err = Diff(bytes.NewReader(mk("same", false)), bytes.NewReader(mk("same", false)))
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("identical frames with identical meta diverged: %v", div)
	}
}

// TestSummaryTicketLifecycle pins the reactive window/open accounting the
// replay consumers (R7 reconstruction) rely on.
func TestSummaryTicketLifecycle(t *testing.T) {
	s := newSummary(nil)
	ev := func(at sim.Time, p bus.TicketEvent) {
		s.Add(Frame{Kind: KindEvent, At: at, Topic: "triage.ticket", Payload: Capture(p)})
	}
	ev(0, bus.TicketEvent{Kind: bus.TicketOpened, ID: 0, Reactive: true})
	ev(sim.Hour, bus.TicketEvent{Kind: bus.TicketOpened, ID: 1, Reactive: false})
	ev(2*sim.Hour, bus.TicketEvent{Kind: bus.TicketOpened, ID: 2, Reactive: true})
	ev(3*sim.Hour, bus.TicketEvent{Kind: bus.TicketResolved, ID: 0, Reactive: true})
	// Cancelled events carry no Reactive flag; the open map remembers.
	ev(4*sim.Hour, bus.TicketEvent{Kind: bus.TicketCancelled, ID: 2})
	ev(5*sim.Hour, bus.TicketEvent{Kind: bus.TicketOpened, ID: 3, Reactive: true})

	if got := s.ReactiveWindows(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("windows %v, want [3]", got)
	}
	if s.reactOpened != 3 || s.reactResolved != 1 || s.reactCancelled != 1 {
		t.Fatalf("counts opened=%d resolved=%d cancelled=%d", s.reactOpened, s.reactResolved, s.reactCancelled)
	}
	if got := s.ReactiveOpen(); got != 1 {
		t.Fatalf("reactive open %d, want 1", got)
	}
}

// BenchmarkRecordEvent measures the per-event cost of the hot tap path.
func BenchmarkRecordEvent(b *testing.B) {
	rec, err := New(io.Discard, map[string]string{"seed": "1"}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ev := bus.Event{Seq: 0, At: 0, Topic: bus.TopicDispatch,
		Payload: bus.Dispatch{Ticket: 7, Actor: "unit-3", Robot: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Seq = uint64(i)
		ev.At = sim.Time(i) * sim.Second
		rec.Tap(0, ev)
	}
	if rec.Err() != nil {
		b.Fatal(rec.Err())
	}
}
