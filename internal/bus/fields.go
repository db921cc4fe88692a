package bus

import (
	"fmt"
	"strconv"
)

// FieldWriter receives a payload's fields, each keyed by its name. It is
// the one description of a payload that the text render, the flight
// recorder's encoder and its replayed form all share. Writers drop zero
// values (0, "" and false), so an absent field reads as zero.
type FieldWriter interface {
	Uint(name string, v uint64)
	Int(name string, v int64)
	Str(name, v string)
	Bool(name string, v bool)
}

// Recordable is a bus payload that describes its own fields. Links are
// written by name, enums by their String name, and sim.Time values as
// integer nanoseconds, so the description holds no pointers and replays
// without a topology.
type Recordable interface {
	// PayloadKind is the payload's stable name ("alert", "ticket", …).
	PayloadKind() string
	// WriteFields writes every field, in a fixed order.
	WriteFields(w FieldWriter)
}

// Render is the text form of a payload: kind{name=value …} for a
// Recordable, with bools written as bare names and strings quoted when
// they would otherwise be ambiguous; fmt's %v for anything else.
func Render(p any) string {
	r, ok := p.(Recordable)
	if !ok {
		return fmt.Sprint(p)
	}
	t := text(append(append(make([]byte, 0, 128), r.PayloadKind()...), '{'))
	r.WriteFields(&t)
	return string(append(t, '}'))
}

// text renders fields after an opening brace.
type text []byte

func (t *text) key(name string) {
	if b := *t; b[len(b)-1] != '{' {
		*t = append(b, ' ')
	}
	*t = append(*t, name...)
}

func (t *text) Uint(name string, v uint64) {
	if v != 0 {
		t.key(name)
		*t = strconv.AppendUint(append(*t, '='), v, 10)
	}
}

func (t *text) Int(name string, v int64) {
	if v != 0 {
		t.key(name)
		*t = strconv.AppendInt(append(*t, '='), v, 10)
	}
}

func (t *text) Str(name, v string) {
	if v == "" {
		return
	}
	t.key(name)
	*t = append(*t, '=')
	if bare(v) {
		*t = append(*t, v...)
	} else {
		*t = strconv.AppendQuote(*t, v)
	}
}

func (t *text) Bool(name string, v bool) {
	if v {
		t.key(name)
	}
}

// bare reports whether s renders unquoted: printable ASCII with no space,
// quote, backslash, brace or equals sign, so a render splits back into its
// fields unambiguously.
func bare(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c <= ' ' || c >= 0x7f, c == '"', c == '\\', c == '{', c == '}', c == '=':
			return false
		}
	}
	return true
}
