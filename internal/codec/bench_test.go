package codec

import "testing"

var benchDesc = MustDescriptor("Bench",
	Field{Number: 1, Name: "id", Type: TypeUint64},
	Field{Number: 2, Name: "name", Type: TypeString},
	Field{Number: 3, Name: "payload", Type: TypeBytes},
	Field{Number: 4, Name: "flag", Type: TypeBool},
)

func benchMessage() *Message {
	return NewMessage(benchDesc).
		Set(1, uint64(123456)).
		Set(2, "bench message with a medium-length name").
		Set(3, make([]byte, 1024)).
		Set(4, true)
}

func BenchmarkMarshal(b *testing.B) {
	m := benchMessage()
	buf, err := Marshal(m)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	buf, err := Marshal(benchMessage())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(benchDesc, buf); err != nil {
			b.Fatal(err)
		}
	}
}
