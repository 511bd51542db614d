// Package value implements fixed-width unsigned bitvector values up to 128
// bits, the concrete value domain of the P4 IR. It is shared by the
// reference simulator, the fuzzer, the P4Runtime codec, and the SMT layer.
package value

import (
	"fmt"
	"math/bits"
)

// V is an unsigned bitvector of Width bits (1..128), stored as a 128-bit
// integer in (Hi, Lo). All operations keep the value masked to Width.
type V struct {
	Hi, Lo uint64
	Width  int
}

// New returns a value of the given width from a uint64, masked to width.
func New(v uint64, width int) V {
	return V{Lo: v, Width: width}.mask()
}

// New128 returns a value of the given width from hi/lo words.
func New128(hi, lo uint64, width int) V {
	return V{Hi: hi, Lo: lo, Width: width}.mask()
}

// Zero returns the zero value of the given width.
func Zero(width int) V { return V{Width: width} }

// Ones returns the all-ones value of the given width.
func Ones(width int) V { return V{Hi: ^uint64(0), Lo: ^uint64(0), Width: width}.mask() }

func (v V) mask() V {
	switch {
	case v.Width >= 128:
	case v.Width > 64:
		v.Hi &= 1<<uint(v.Width-64) - 1
	case v.Width == 64:
		v.Hi = 0
	default:
		v.Hi = 0
		v.Lo &= 1<<uint(v.Width) - 1
	}
	return v
}

// Uint64 returns the low 64 bits.
func (v V) Uint64() uint64 { return v.Lo }

// IsZero reports whether the value is zero.
func (v V) IsZero() bool { return v.Hi == 0 && v.Lo == 0 }

// Equal reports value equality (width-insensitive on the numeric value).
func (v V) Equal(o V) bool { return v.Hi == o.Hi && v.Lo == o.Lo }

// Less reports unsigned v < o.
func (v V) Less(o V) bool {
	if v.Hi != o.Hi {
		return v.Hi < o.Hi
	}
	return v.Lo < o.Lo
}

// Bit returns bit i (0 = least significant).
func (v V) Bit(i int) bool {
	if i >= 64 {
		return v.Hi>>(uint(i)-64)&1 == 1
	}
	return v.Lo>>uint(i)&1 == 1
}

// SetBit returns v with bit i set to b.
func (v V) SetBit(i int, b bool) V {
	if i >= 64 {
		if b {
			v.Hi |= 1 << (uint(i) - 64)
		} else {
			v.Hi &^= 1 << (uint(i) - 64)
		}
	} else {
		if b {
			v.Lo |= 1 << uint(i)
		} else {
			v.Lo &^= 1 << uint(i)
		}
	}
	return v.mask()
}

// And returns v & o at v's width.
func (v V) And(o V) V { return V{Hi: v.Hi & o.Hi, Lo: v.Lo & o.Lo, Width: v.Width}.mask() }

// Or returns v | o at v's width.
func (v V) Or(o V) V { return V{Hi: v.Hi | o.Hi, Lo: v.Lo | o.Lo, Width: v.Width}.mask() }

// Xor returns v ^ o at v's width.
func (v V) Xor(o V) V { return V{Hi: v.Hi ^ o.Hi, Lo: v.Lo ^ o.Lo, Width: v.Width}.mask() }

// Not returns ^v at v's width.
func (v V) Not() V { return V{Hi: ^v.Hi, Lo: ^v.Lo, Width: v.Width}.mask() }

// Add returns v + o (mod 2^width) at v's width.
func (v V) Add(o V) V {
	lo, carry := bits.Add64(v.Lo, o.Lo, 0)
	hi, _ := bits.Add64(v.Hi, o.Hi, carry)
	return V{Hi: hi, Lo: lo, Width: v.Width}.mask()
}

// Sub returns v - o (mod 2^width) at v's width.
func (v V) Sub(o V) V {
	lo, borrow := bits.Sub64(v.Lo, o.Lo, 0)
	hi, _ := bits.Sub64(v.Hi, o.Hi, borrow)
	return V{Hi: hi, Lo: lo, Width: v.Width}.mask()
}

// Shl returns v << n at v's width.
func (v V) Shl(n int) V {
	switch {
	case n <= 0:
		return v
	case n >= 128:
		return Zero(v.Width)
	case n >= 64:
		return V{Hi: v.Lo << uint(n-64), Width: v.Width}.mask()
	default:
		return V{Hi: v.Hi<<uint(n) | v.Lo>>uint(64-n), Lo: v.Lo << uint(n), Width: v.Width}.mask()
	}
}

// Shr returns v >> n (logical) at v's width.
func (v V) Shr(n int) V {
	switch {
	case n <= 0:
		return v
	case n >= 128:
		return Zero(v.Width)
	case n >= 64:
		return V{Lo: v.Hi >> uint(n-64), Width: v.Width}
	default:
		return V{Hi: v.Hi >> uint(n), Lo: v.Lo>>uint(n) | v.Hi<<uint(64-n), Width: v.Width}
	}
}

// WithWidth returns the value reinterpreted at a new width (masked).
func (v V) WithWidth(w int) V { return V{Hi: v.Hi, Lo: v.Lo, Width: w}.mask() }

// Bytes returns the big-endian fixed-width encoding, ceil(width/8) bytes.
func (v V) Bytes() []byte {
	n := (v.Width + 7) / 8
	out := make([]byte, n)
	lo, hi := v.Lo, v.Hi
	for i := n - 1; i >= 0; i-- {
		out[i] = byte(lo)
		lo = lo>>8 | hi<<56
		hi >>= 8
	}
	return out
}

// FromBytes decodes a big-endian byte string into a value of the given
// width. It fails if the bytes encode a value that does not fit in width
// bits.
func FromBytes(b []byte, width int) (V, error) {
	if len(b) > 16 {
		for _, c := range b[:len(b)-16] {
			if c != 0 {
				return V{}, fmt.Errorf("value: %d-byte string overflows 128 bits", len(b))
			}
		}
		b = b[len(b)-16:]
	}
	var hi, lo uint64
	for _, c := range b {
		hi = hi<<8 | lo>>56
		lo = lo<<8 | uint64(c)
	}
	v := V{Hi: hi, Lo: lo, Width: width}
	if m := v.mask(); m.Hi != v.Hi || m.Lo != v.Lo {
		return V{}, fmt.Errorf("value: %#x%016x does not fit in %d bits", hi, lo, width)
	}
	return v.mask(), nil
}

// PrefixMask returns a value of the given width whose top plen bits are 1.
func PrefixMask(plen, width int) V {
	if plen <= 0 {
		return Zero(width)
	}
	if plen >= width {
		return Ones(width)
	}
	return Ones(width).Shl(width - plen)
}

// String renders the value in hex with its width, e.g. 32w0x0a000001.
// Hand-rolled formatting: this sits on the hot path of entry keys and the
// reference-count indexes.
func (v V) String() string {
	var buf [44]byte
	return string(v.Append(buf[:0]))
}

// Append appends the String form of the value to dst.
func (v V) Append(dst []byte) []byte {
	dst = appendUint(dst, uint64(v.Width))
	dst = append(dst, 'w', '0', 'x')
	if v.Hi != 0 {
		dst = appendHex(dst, v.Hi, false)
		return appendHex(dst, v.Lo, true)
	}
	return appendHex(dst, v.Lo, false)
}

const hexDigits = "0123456789abcdef"

// appendHex appends the hex form of x; padded forces 16 digits.
func appendHex(dst []byte, x uint64, padded bool) []byte {
	var tmp [16]byte
	i := len(tmp)
	for x > 0 {
		i--
		tmp[i] = hexDigits[x&0xf]
		x >>= 4
	}
	if padded {
		for i > 0 {
			i--
			tmp[i] = '0'
		}
	} else if i == len(tmp) {
		i--
		tmp[i] = '0'
	}
	return append(dst, tmp[i:]...)
}

func appendUint(dst []byte, x uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + x%10)
		x /= 10
		if x == 0 {
			break
		}
	}
	return append(dst, tmp[i:]...)
}
