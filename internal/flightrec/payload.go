package flightrec

import (
	"fmt"

	"repro/internal/bus"
)

// Payload is an event payload as a recording holds it: its kind and its
// fields in written order, each keyed by name. The recorder captures live
// payloads into this form through their bus.Recordable description, and
// the reader decodes every kind into it, so flightrec knows no payload
// kind and a capture equals its decode field for field. A recording is
// self-contained: replay needs no topology, no world, no simulation.
type Payload struct {
	Kind   string
	Fields []Field
}

// FieldType is a payload field's value type; it is also its wire type.
type FieldType uint8

// Field types. A bool field is only ever true: writers drop false.
const (
	FieldUint FieldType = iota
	FieldInt
	FieldStr
	FieldBool
)

// Field is one named payload field. Num holds a FieldUint value, a
// FieldInt value's two's-complement bits, or 1 for FieldBool; Str holds a
// FieldStr value.
type Field struct {
	Name string
	Type FieldType
	Num  uint64
	Str  string
}

// PayloadKind implements bus.Recordable.
func (p Payload) PayloadKind() string { return p.Kind }

// WriteFields implements bus.Recordable: a decoded payload writes back the
// fields it was captured from, so bus.Render of a replayed payload is the
// live payload's render.
func (p Payload) WriteFields(w bus.FieldWriter) {
	for _, f := range p.Fields {
		switch f.Type {
		case FieldUint:
			w.Uint(f.Name, f.Num)
		case FieldInt:
			w.Int(f.Name, int64(f.Num))
		case FieldStr:
			w.Str(f.Name, f.Str)
		case FieldBool:
			w.Bool(f.Name, f.Num != 0)
		}
	}
}

// String renders the payload as bus.Render does.
func (p Payload) String() string { return bus.Render(p) }

func (p Payload) field(name string) Field {
	for _, f := range p.Fields {
		if f.Name == name {
			return f
		}
	}
	return Field{}
}

// Int returns the named int field, or 0 when absent.
func (p Payload) Int(name string) int64 { return int64(p.field(name).Num) }

// Str returns the named string field, or "" when absent.
func (p Payload) Str(name string) string { return p.field(name).Str }

// Bool returns the named bool field, or false when absent.
func (p Payload) Bool(name string) bool { return p.field(name).Num != 0 }

// Capture returns the recorded form of a live payload: what a recording of
// it decodes to.
func Capture(p any) Payload {
	var l fieldList
	kind := l.capture(p)
	return Payload{Kind: kind, Fields: l}
}

// fieldList collects a payload's fields as a bus.FieldWriter, dropping
// zero values as every writer does.
type fieldList []Field

// capture replaces the list with p's fields and returns p's kind. A
// payload that is not bus.Recordable is captured as kind "generic": its Go
// type name and %v text, deterministic as long as that text is.
func (l *fieldList) capture(p any) string {
	*l = (*l)[:0]
	r, ok := p.(bus.Recordable)
	if !ok {
		l.Str("type", fmt.Sprintf("%T", p))
		l.Str("text", fmt.Sprint(p))
		return "generic"
	}
	r.WriteFields(l)
	return r.PayloadKind()
}

func (l *fieldList) Uint(name string, v uint64) {
	if v != 0 {
		*l = append(*l, Field{Name: name, Type: FieldUint, Num: v})
	}
}

func (l *fieldList) Int(name string, v int64) {
	if v != 0 {
		*l = append(*l, Field{Name: name, Type: FieldInt, Num: uint64(v)})
	}
}

func (l *fieldList) Str(name, v string) {
	if v != "" {
		*l = append(*l, Field{Name: name, Type: FieldStr, Str: v})
	}
}

func (l *fieldList) Bool(name string, v bool) {
	if v {
		*l = append(*l, Field{Name: name, Type: FieldBool, Num: 1})
	}
}
