package value

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMasks(t *testing.T) {
	v := New(0x1ff, 8)
	if v.Lo != 0xff || v.Width != 8 {
		t.Errorf("New(0x1ff, 8) = %v", v)
	}
	v = New128(^uint64(0), ^uint64(0), 100)
	if v.Hi != 1<<36-1 || v.Lo != ^uint64(0) {
		t.Errorf("New128 mask = %v", v)
	}
	if !Ones(64).Equal(New(^uint64(0), 64)) {
		t.Error("Ones(64)")
	}
	if !Zero(128).IsZero() {
		t.Error("Zero not zero")
	}
}

func TestBitOps(t *testing.T) {
	a := New(0b1100, 4)
	b := New(0b1010, 4)
	if got := a.And(b); got.Lo != 0b1000 {
		t.Errorf("And = %v", got)
	}
	if got := a.Or(b); got.Lo != 0b1110 {
		t.Errorf("Or = %v", got)
	}
	if got := a.Xor(b); got.Lo != 0b0110 {
		t.Errorf("Xor = %v", got)
	}
	if got := a.Not(); got.Lo != 0b0011 {
		t.Errorf("Not = %v", got)
	}
}

func TestAddSubWrap(t *testing.T) {
	a := New(255, 8)
	if got := a.Add(New(1, 8)); !got.IsZero() {
		t.Errorf("255+1 = %v", got)
	}
	if got := Zero(8).Sub(New(1, 8)); got.Lo != 255 {
		t.Errorf("0-1 = %v", got)
	}
	// Carry across the 64-bit word boundary.
	a = New128(0, ^uint64(0), 128)
	if got := a.Add(New(1, 128)); got.Hi != 1 || got.Lo != 0 {
		t.Errorf("carry = %v", got)
	}
	b := New128(1, 0, 128)
	if got := b.Sub(New(1, 128)); got.Hi != 0 || got.Lo != ^uint64(0) {
		t.Errorf("borrow = %v", got)
	}
}

func TestShifts(t *testing.T) {
	v := New(1, 128)
	if got := v.Shl(64); got.Hi != 1 || got.Lo != 0 {
		t.Errorf("1<<64 = %v", got)
	}
	if got := v.Shl(127); got.Hi != 1<<63 {
		t.Errorf("1<<127 = %v", got)
	}
	if got := v.Shl(128); !got.IsZero() {
		t.Errorf("1<<128 = %v", got)
	}
	w := New128(1<<63, 0, 128)
	if got := w.Shr(64); got.Lo != 1<<63 || got.Hi != 0 {
		t.Errorf(">>64 = %v", got)
	}
	if got := w.Shr(127); got.Lo != 1 {
		t.Errorf(">>127 = %v", got)
	}
	x := New(0b1010, 8)
	if got := x.Shl(1); got.Lo != 0b10100 {
		t.Errorf("<<1 = %v", got)
	}
	if got := x.Shr(1); got.Lo != 0b101 {
		t.Errorf(">>1 = %v", got)
	}
}

func TestLess(t *testing.T) {
	cases := []struct {
		a, b V
		want bool
	}{
		{New(1, 8), New(2, 8), true},
		{New(2, 8), New(1, 8), false},
		{New(1, 8), New(1, 8), false},
		{New128(1, 0, 128), New128(0, ^uint64(0), 128), false},
		{New128(0, ^uint64(0), 128), New128(1, 0, 128), true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v < %v = %v", c.a, c.b, got)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	v := New(0x0a000001, 32)
	b := v.Bytes()
	if !bytes.Equal(b, []byte{0x0a, 0, 0, 1}) {
		t.Fatalf("Bytes = %x", b)
	}
	got, err := FromBytes(b, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Errorf("round trip = %v", got)
	}
	// Odd widths.
	v10 := New(0x3ff, 10)
	if n := len(v10.Bytes()); n != 2 {
		t.Errorf("10-bit value encodes to %d bytes", n)
	}
	got, err = FromBytes(v10.Bytes(), 10)
	if err != nil || !got.Equal(v10) {
		t.Errorf("10-bit round trip = %v, %v", got, err)
	}
	// 128-bit.
	v128 := New128(0x20010db800000000, 1, 128)
	got, err = FromBytes(v128.Bytes(), 128)
	if err != nil || !got.Equal(v128) {
		t.Errorf("128-bit round trip = %v, %v", got, err)
	}
}

func TestFromBytesErrors(t *testing.T) {
	if _, err := FromBytes([]byte{0x04}, 2); err == nil {
		t.Error("overflowing value accepted")
	}
	// 17 bytes with a nonzero leading byte.
	b := make([]byte, 17)
	b[0] = 1
	if _, err := FromBytes(b, 128); err == nil {
		t.Error("17-byte overflow accepted")
	}
	// 17 bytes with zero padding is fine.
	b[0] = 0
	b[16] = 9
	v, err := FromBytes(b, 128)
	if err != nil || v.Lo != 9 {
		t.Errorf("padded decode = %v, %v", v, err)
	}
}

func TestPrefixMask(t *testing.T) {
	if got := PrefixMask(8, 32); got.Lo != 0xff000000 {
		t.Errorf("PrefixMask(8,32) = %v", got)
	}
	if got := PrefixMask(0, 32); !got.IsZero() {
		t.Errorf("PrefixMask(0,32) = %v", got)
	}
	if got := PrefixMask(32, 32); got.Lo != 0xffffffff {
		t.Errorf("PrefixMask(32,32) = %v", got)
	}
	if got := PrefixMask(64, 128); got.Hi != ^uint64(0) || got.Lo != 0 {
		t.Errorf("PrefixMask(64,128) = %v", got)
	}
	if got := PrefixMask(1, 128); got.Hi != 1<<63 {
		t.Errorf("PrefixMask(1,128) = %v", got)
	}
}

func TestBitAndSetBit(t *testing.T) {
	v := Zero(128)
	for _, i := range []int{0, 5, 63, 64, 100, 127} {
		v = v.SetBit(i, true)
		if !v.Bit(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	v = v.SetBit(64, false)
	if v.Bit(64) {
		t.Error("bit 64 still set")
	}
}

// Property: byte round trip is the identity for random values and widths.
func TestBytesRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		w := 1 + rng.Intn(128)
		v := New128(rng.Uint64(), rng.Uint64(), w)
		got, err := FromBytes(v.Bytes(), w)
		return err == nil && got.Equal(v) && got.Width == w
	}
	for i := 0; i < 2000; i++ {
		if !f() {
			t.Fatal("round trip failed")
		}
	}
}

// Property: Add is the inverse of Sub.
func TestAddSubProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		x := New(a, 64)
		y := New(b, 64)
		return x.Add(y).Sub(y).Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if s := New(255, 8).String(); s != "8w0xff" {
		t.Errorf("String = %q", s)
	}
	if s := New128(1, 0, 128).String(); s != "128w0x10000000000000000" {
		t.Errorf("String = %q", s)
	}
	if s := string(New(255, 8).Append([]byte("f="))); s != "f=8w0xff" {
		t.Errorf("Append = %q", s)
	}
}

func TestStringHiLoPadding(t *testing.T) {
	// The low word must be zero-padded to 16 hex digits when Hi != 0.
	if s := New128(1, 5, 128).String(); s != "128w0x10000000000000005" {
		t.Errorf("String = %q", s)
	}
	if s := Zero(16).String(); s != "16w0x0" {
		t.Errorf("String = %q", s)
	}
	if s := New128(0xabc, 0xdef0123456789abc, 128).String(); s != "128w0xabcdef0123456789abc" {
		t.Errorf("String = %q", s)
	}
}
