package flightrec

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Kind discriminates frame types. Kinds are append-only; a reader skips
// frame kinds it does not know (the length prefix makes that safe).
type Kind uint8

// Frame kinds.
const (
	KindEvent    Kind = 1 // one bus event (any topic, journal included)
	KindSnapshot Kind = 2 // periodic metric sample
	KindState    Kind = 3 // end-of-run key/value state for one shard
	KindEpoch    Kind = 4 // a multi-engine epoch barrier
	KindTrailer  Kind = 5 // frame count + live summary fingerprint/render
)

var kindNames = [...]string{
	KindEvent:    "event",
	KindSnapshot: "snapshot",
	KindState:    "state",
	KindEpoch:    "epoch",
	KindTrailer:  "trailer",
}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Snap is one periodic metric snapshot: the low-rate health signal that
// makes a recording browsable without replaying every event.
type Snap struct {
	Avail     float64 // routed traffic availability at the sample instant
	LinksDown int     // links observably unhealthy
	OpenTix   int     // open tickets
	Fired     uint64  // engine events fired so far on this shard
}

// kvKind discriminates KV value types on the wire.
type kvKind uint8

const (
	kvInt kvKind = iota
	kvFloat
	kvStr
)

// KV is one typed key/value pair of a state frame: the scalars a report is
// rebuilt from (stats counters, ledger integrals, fingerprints).
type KV struct {
	Key  string
	kind kvKind
	i    int64
	f    float64
	s    string
}

// KInt makes an integer-valued KV.
func KInt(key string, v int64) KV { return KV{Key: key, kind: kvInt, i: v} }

// KFloat makes a float-valued KV.
func KFloat(key string, v float64) KV { return KV{Key: key, kind: kvFloat, f: v} }

// KStr makes a string-valued KV.
func KStr(key, v string) KV { return KV{Key: key, kind: kvStr, s: v} }

// Int returns the integer value (zero for other kinds).
func (kv KV) Int() int64 { return kv.i }

// Float returns the float value (zero for other kinds).
func (kv KV) Float() float64 { return kv.f }

// Str returns the string value ("" for other kinds).
func (kv KV) Str() string { return kv.s }

// String renders key=value. Floats use strconv 'g' with full precision, so
// the render round-trips the exact bits — state lines are fingerprinted.
func (kv KV) String() string {
	switch kv.kind {
	case kvInt:
		return kv.Key + "=" + strconv.FormatInt(kv.i, 10)
	case kvFloat:
		return kv.Key + "=" + fmtFloat(kv.f)
	default:
		return kv.Key + "=" + kv.s
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Frame is one decoded (or about-to-be-encoded) record. Only the fields
// relevant to Kind are populated.
type Frame struct {
	Kind  Kind
	Index uint64 // ordinal in the file, assigned by the recorder/reader
	Shard int    // owning shard (events, snapshots, state)

	// Event fields.
	At      sim.Time
	Seq     uint64
	Topic   string
	Payload Payload

	// Snapshot fields (At and Shard above also apply).
	Snap Snap

	// State fields.
	State []KV

	// Epoch fields: Epoch is the barrier ordinal, At its horizon.
	Epoch uint64

	// Trailer fields.
	Frames      uint64
	Fingerprint uint64
	Render      string

	// Raw holds the body of a frame whose kind this reader predates; it is
	// retained so diffs can still compare the streams byte-for-byte.
	Raw []byte
}

// String is the canonical render diffing and bisection compare. Times are
// printed as exact nanosecond counts (@n) — the pretty ms-truncated form
// could alias two genuinely different instants.
func (f Frame) String() string {
	switch f.Kind {
	case KindEvent:
		return fmt.Sprintf("ev shard=%d @%d #%d %s %s", f.Shard, int64(f.At), f.Seq, f.Topic, f.Payload)
	case KindSnapshot:
		return fmt.Sprintf("snap shard=%d @%d avail=%s down=%d open=%d fired=%d",
			f.Shard, int64(f.At), fmtFloat(f.Snap.Avail), f.Snap.LinksDown, f.Snap.OpenTix, f.Snap.Fired)
	case KindState:
		var b strings.Builder
		fmt.Fprintf(&b, "state shard=%d", f.Shard)
		for _, kv := range f.State {
			b.WriteByte(' ')
			b.WriteString(kv.String())
		}
		return b.String()
	case KindEpoch:
		return fmt.Sprintf("epoch %d @%d", f.Epoch, int64(f.At))
	case KindTrailer:
		return fmt.Sprintf("trailer frames=%d fingerprint=%016x", f.Frames, f.Fingerprint)
	default:
		return fmt.Sprintf("%v len=%d", f.Kind, len(f.Raw))
	}
}
