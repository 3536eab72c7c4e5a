package stream

import (
	"math"
	"math/bits"
	"strconv"

	"imrdmd/internal/codec"
)

// numberSyntax is a token that breaks the RFC 8259 number grammar. Its
// text is the context a syntax error names ("in numeric literal", ...).
type numberSyntax string

func (e numberSyntax) Error() string { return "stream: invalid number: " + string(e) }

// maxMantDigits is how many significant decimal digits fit a uint64
// whatever they are: 10¹⁹−1 < 2⁶⁴.
const maxMantDigits = 19

// parseNumber reads the number at the start of b, checking the RFC 8259
// grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it
// to the float64 nearest its decimal value, ties to even: the value
// strconv.ParseFloat gives the same token, bit for bit. It returns the
// value and the length of the token.
//
// A token that breaks the grammar fails with a numberSyntax, n then
// being the offset of the byte at fault (len(b) when the token is cut
// short). A token beyond the float64 range fails with strconv's range
// error, the value then being ±Inf, as ParseFloat reports it.
//
// The digits are read into a uint64 mantissa m, up to eight at a time,
// and the token's value is m·10^e. Three routes convert it:
//
//   - m < 2⁵³ and |e| ≤ 22: both m and 10^|e| are exact doubles, so one
//     IEEE multiply or divide rounds the exact product or quotient once
//     (Clinger's fast path);
//   - |e| ≤ 19: 10^|e| fits a uint64, so m·10^e is an exact 128-bit
//     product, or m/10^|e| a 64-bit quotient of m scaled by 2^s with the
//     remainder kept as a sticky bit, either rounded to 53 bits half to
//     even (round53);
//   - anything else (more than 19 significant digits, larger exponents)
//     goes to strconv.ParseFloat.
func parseNumber(b []byte) (v float64, n int, err error) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	var m uint64
	nd := 0       // significant digits in m
	many := false // a significant digit past the 19th was dropped
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, m, nd, many = mantissa(b, i, 0, 0)
	default:
		return 0, i, numberSyntax("in numeric literal")
	}
	e10 := 0
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		if m == 0 { // 0.000ddd: the zeros are not significant
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		var fracMany bool
		i, m, nd, fracMany = mantissa(b, i, m, nd)
		if i == start {
			return 0, i, numberSyntax("after decimal point in numeric literal")
		}
		many = many || fracMany
		e10 = start - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start, x := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if x < 1e6 { // far past every route's limit; stops overflow
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0, i, numberSyntax("in exponent of numeric literal")
		}
		if eneg {
			x = -x
		}
		e10 += x
	}
	switch {
	case many:
		return parseFloat(b[:i])
	case m == 0: // ±0
	case m < 1<<53 && -22 <= e10 && e10 <= 22:
		v = float64(m)
		if e10 < 0 {
			v /= pow10f[-e10]
		} else {
			v *= pow10f[e10]
		}
	case 0 <= e10 && e10 <= maxMantDigits:
		hi, lo := bits.Mul64(m, pow10u[e10])
		if hi == 0 {
			v = round53(lo, false, 0)
		} else {
			lz := bits.LeadingZeros64(hi)
			v = round53(hi<<lz|lo>>(64-lz), lo<<lz != 0, 64-lz)
		}
	case -maxMantDigits <= e10 && e10 < 0:
		// m/d scaled by 2^s, s chosen so the quotient has 63 or 64 bits:
		// with La and Ld the bit lengths of m and d, m·2^s < 2^(Ld+63),
		// so the high word is below 2^(Ld−1) ≤ d (as Div64 requires) and
		// the quotient below 2^64, while m·2^s ≥ 2^(Ld+62) > d·2^62.
		d := pow10u[-e10]
		s := bits.LeadingZeros64(m) - bits.LeadingZeros64(d) + 63
		var hi, lo uint64
		if s >= 64 {
			hi = m << (s - 64)
		} else {
			hi, lo = m>>(64-s), m<<s
		}
		q, r := bits.Div64(hi, lo, d)
		v = round53(q, r != 0, -s)
	default:
		return parseFloat(b[:i])
	}
	if neg {
		v = -v
	}
	return v, i, nil
}

// parseFloat converts a token whose grammar parseNumber has checked.
func parseFloat(tok []byte) (float64, int, error) {
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, len(tok), err
}

// mantissa reads the decimal digits at b[i:] into m, which holds nd
// significant digits so far, and returns the offset past the digits, the
// new m and nd, and whether a significant digit past the 19th had to be
// dropped. Where eight bytes remain, the digits are read a little-endian
// word at a time: the run of up to eight digits that opens the word
// (digitRun) is shifted to its top and converted in one step.
func mantissa(b []byte, i int, m uint64, nd int) (int, uint64, int, bool) {
	for {
		w, ok := codec.Word64(b, i)
		if !ok {
			break
		}
		k := digitRun(w)
		if nd+k > maxMantDigits {
			break
		}
		if k > 0 {
			m = m*pow10u[k] + eightDigitsValue(w<<(64-8*k))
			i += k
			nd += k
		}
		if k < 8 {
			return i, m, nd, false
		}
	}
	for ; nd < maxMantDigits && i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		m = m*10 + uint64(b[i]-'0')
		nd++
	}
	many := false
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		many = true
	}
	return i, m, nd, many
}

// digitRun returns how many ASCII digits open the little-endian word w,
// first byte lowest. With x = w ^ '0' in every byte, a digit's byte is
// below 10; the first byte that is not has its top bit set in x (0x80 and
// up) or in x + 0x76 (10 to 0x7f), and no carry enters it, as every byte
// below it is a digit.
func digitRun(w uint64) int {
	x := w ^ 0x3030303030303030
	return bits.TrailingZeros64((x+0x7676767676767676|x)&0x8080808080808080) / 8
}

// eightDigitsValue returns the value of the eight digits in the
// little-endian word w, first digit in the low byte, where a byte counts
// as its low nibble (so zero bytes below a shifted run count as leading
// zeros): neighbouring digits combine, then pairs, then quads, in three
// multiplies.
func eightDigitsValue(w uint64) uint64 {
	w = (w & 0x0F0F0F0F0F0F0F0F) * (1 + 10<<8) >> 8
	w = (w & 0x00FF00FF00FF00FF) * (1 + 100<<16) >> 16
	return (w & 0x0000FFFF0000FFFF) * (1 + 10000<<32) >> 32
}

// round53 returns (x + f)·2^e2 rounded to 53 bits, ties to even, where x
// is nonzero and f ∈ [0, 1) is a fraction known only to be nonzero
// (sticky) or zero. The result must be a normal double: parseNumber's
// integer routes give values in [1e-19, 1e38].
func round53(x uint64, sticky bool, e2 int) float64 {
	lz := bits.LeadingZeros64(x)
	x <<= lz
	e2 -= lz
	mant, rest := x>>11, x&(1<<11-1)
	if rest > 1<<10 || rest == 1<<10 && (sticky || mant&1 == 1) {
		mant++
		if mant == 1<<53 {
			mant >>= 1
			e2++
		}
	}
	// mant·2^(e2+11) = 1.f·2^(e2+63), with the exponent biased by 1023.
	return math.Float64frombits(uint64(e2+63+1023)<<52 | mant&(1<<52-1))
}

// pow10f and pow10u hold the powers of ten that are exact as a double
// (10²² = 2²²·5²², 5²² < 2⁵³) and as a uint64 (10¹⁹ < 2⁶⁴).
var (
	pow10f = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
		1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
	pow10u = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
		1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
)
