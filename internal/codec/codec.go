// Package codec implements the message serialization layer of the RPC
// stack: a compact field-tagged binary encoding in the spirit of protocol
// buffers, driven by message descriptors rather than generated code.
//
// The paper attributes 1.2% of all fleet CPU cycles to serialization
// (Fig. 20). The codec carries the four singular field kinds the stack
// encodes — uint64, bool, string and bytes — and is the reference stubby's
// hand-written envelope coder is checked against.
package codec

import (
	"errors"
	"fmt"

	"rpcscale/internal/wire"
)

// FieldType enumerates supported field kinds.
type FieldType uint8

// Supported field types.
const (
	TypeUint64 FieldType = iota
	TypeBool
	TypeString
	TypeBytes
)

// wire types, protobuf-style: 0 = varint, 1 = 64-bit fixed, 2 = length-
// delimited. No field kind encodes as fixed64; Unmarshal still skips such
// unknown fields.
const (
	wtVarint  = 0
	wtFixed64 = 1
	wtBytes   = 2
)

func (t FieldType) wireType() uint64 {
	if t == TypeUint64 || t == TypeBool {
		return wtVarint
	}
	return wtBytes
}

// Field describes one field of a message type.
type Field struct {
	Number uint64 // tag number, >= 1, unique within the message
	Name   string
	Type   FieldType
}

// Descriptor describes a message type: an ordered list of fields. It plays
// the role of a compiled .proto message for a stack without codegen.
type Descriptor struct {
	Name   string
	Fields []Field
	byNum  map[uint64]*Field
}

// NewDescriptor validates and indexes a message descriptor.
func NewDescriptor(name string, fields ...Field) (*Descriptor, error) {
	d := &Descriptor{Name: name, Fields: fields, byNum: make(map[uint64]*Field, len(fields))}
	for i := range fields {
		f := &d.Fields[i]
		if f.Number == 0 {
			return nil, fmt.Errorf("codec: %s.%s has field number 0", name, f.Name)
		}
		if _, dup := d.byNum[f.Number]; dup {
			return nil, fmt.Errorf("codec: %s has duplicate field number %d", name, f.Number)
		}
		d.byNum[f.Number] = f
	}
	return d, nil
}

// MustDescriptor is NewDescriptor that panics on error; for package-level
// descriptor construction.
func MustDescriptor(name string, fields ...Field) *Descriptor {
	d, err := NewDescriptor(name, fields...)
	if err != nil {
		panic(err)
	}
	return d
}

// FieldByNumber returns the field with the given tag, or nil.
func (d *Descriptor) FieldByNumber(n uint64) *Field { return d.byNum[n] }

// Message is a dynamic message: field number -> value. Values are uint64,
// bool, string or []byte according to the descriptor.
type Message struct {
	Desc   *Descriptor
	fields map[uint64]any
}

// NewMessage returns an empty message of the given type.
func NewMessage(d *Descriptor) *Message {
	return &Message{Desc: d, fields: make(map[uint64]any)}
}

// Set assigns a singular field value. It panics on an unknown field number
// or a type mismatch — these are programming errors, equivalent to a
// compile error under codegen.
func (m *Message) Set(num uint64, v any) *Message {
	f := m.Desc.FieldByNumber(num)
	if f == nil {
		panic(fmt.Sprintf("codec: %s has no field %d", m.Desc.Name, num))
	}
	checkType(f, v)
	m.fields[num] = v
	return m
}

func checkType(f *Field, v any) {
	ok := false
	switch f.Type {
	case TypeUint64:
		_, ok = v.(uint64)
	case TypeBool:
		_, ok = v.(bool)
	case TypeString:
		_, ok = v.(string)
	case TypeBytes:
		_, ok = v.([]byte)
	}
	if !ok {
		panic(fmt.Sprintf("codec: field %s has type %d, got %T", f.Name, f.Type, v))
	}
}

// GetUint64 returns the field value or 0.
func (m *Message) GetUint64(num uint64) uint64 {
	if v, ok := m.fields[num].(uint64); ok {
		return v
	}
	return 0
}

// GetBool returns the field value or false.
func (m *Message) GetBool(num uint64) bool {
	if v, ok := m.fields[num].(bool); ok {
		return v
	}
	return false
}

// GetString returns the field value or "".
func (m *Message) GetString(num uint64) string {
	if v, ok := m.fields[num].(string); ok {
		return v
	}
	return ""
}

// GetBytes returns the field value or nil.
func (m *Message) GetBytes(num uint64) []byte {
	if v, ok := m.fields[num].([]byte); ok {
		return v
	}
	return nil
}

// Marshal encodes the message. Fields go out in descriptor order, so the
// output is deterministic.
func Marshal(m *Message) ([]byte, error) {
	var buf []byte
	for i := range m.Desc.Fields {
		f := &m.Desc.Fields[i]
		if v, ok := m.fields[f.Number]; ok {
			buf = appendField(buf, f, v)
		}
	}
	return buf, nil
}

func appendField(buf []byte, f *Field, v any) []byte {
	buf = wire.AppendUvarint(buf, f.Number<<3|f.Type.wireType())
	switch f.Type {
	case TypeUint64:
		buf = wire.AppendUvarint(buf, v.(uint64))
	case TypeBool:
		b := uint64(0)
		if v.(bool) {
			b = 1
		}
		buf = wire.AppendUvarint(buf, b)
	case TypeString:
		s := v.(string)
		buf = wire.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	case TypeBytes:
		b := v.([]byte)
		buf = wire.AppendUvarint(buf, uint64(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

// ErrTruncated reports a message that ends mid-field.
var ErrTruncated = errors.New("codec: truncated message")

// Unmarshal decodes buf into a new message of type d. Unknown fields of
// every wire type are skipped (forward compatibility), mirroring protobuf
// semantics; a known field arriving with the wrong wire type is refused.
// A field that appears more than once keeps its last value.
func Unmarshal(d *Descriptor, buf []byte) (*Message, error) {
	m := NewMessage(d)
	for len(buf) > 0 {
		key, n := wire.Uvarint(buf)
		if n <= 0 {
			return nil, ErrTruncated
		}
		buf = buf[n:]
		f := d.FieldByNumber(key >> 3)
		wt := key & 0x7
		if f != nil && wt != f.Type.wireType() {
			return nil, fmt.Errorf("codec: field %s: wire type mismatch", f.Name)
		}
		var v any
		switch wt {
		case wtVarint:
			x, n := wire.Uvarint(buf)
			if n <= 0 {
				return nil, ErrTruncated
			}
			buf = buf[n:]
			switch {
			case f == nil:
			case f.Type == TypeBool:
				v = x != 0
			default:
				v = x
			}
		case wtFixed64:
			if len(buf) < 8 {
				return nil, ErrTruncated
			}
			buf = buf[8:]
		case wtBytes:
			length, n := wire.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < length {
				return nil, ErrTruncated
			}
			payload := buf[n : n+int(length)]
			buf = buf[n+int(length):]
			switch {
			case f == nil:
			case f.Type == TypeString:
				v = string(payload)
			default:
				v = append([]byte(nil), payload...)
			}
		default:
			return nil, fmt.Errorf("codec: unknown wire type %d", wt)
		}
		if f != nil {
			m.fields[f.Number] = v
		}
	}
	return m, nil
}
