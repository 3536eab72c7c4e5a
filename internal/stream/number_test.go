package stream

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refNumber is the grammar-only number scanner parseNumber replaced,
// kept as the reference for where a token ends and where and why it
// fails: it returns the offset past the number at the start of b, or the
// offset of the byte at fault and the syntax error's context.
func refNumber(b []byte) (int, string) {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i + 1)
	default:
		return i, "in numeric literal"
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return j, "after decimal point in numeric literal"
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return i, "in exponent of numeric literal"
		}
		i = j
	}
	return i, ""
}

// checkNumber holds parseNumber on b, and on b followed by a separator
// and digits (so that the token ends inside a word parseNumber reads at
// once), to refNumber for the grammar and to strconv.ParseFloat for the
// value and the range error.
func checkNumber(t *testing.T, b []byte) {
	t.Helper()
	checkNumberAt(t, b)
	checkNumberAt(t, append(b[:len(b):len(b)], ",1234567"...))
}

func checkNumberAt(t *testing.T, b []byte) {
	t.Helper()
	v, n, err := parseNumber(b)
	wantN, ctx := refNumber(b)
	if ctx != "" {
		if err != numberSyntax(ctx) || n != wantN {
			t.Fatalf("parseNumber(%q) = %v, %d, %v; want a syntax error %q at %d", b, v, n, err, ctx, wantN)
		}
		return
	}
	want, werr := strconv.ParseFloat(string(b[:wantN]), 64)
	if n != wantN || math.Float64bits(v) != math.Float64bits(want) || (err == nil) != (werr == nil) {
		t.Fatalf("parseNumber(%q) = %v (%#x), %d, %v; strconv gives %v (%#x), %d, %v",
			b, v, math.Float64bits(v), n, err, want, math.Float64bits(want), wantN, werr)
	}
	if werr != nil && !errors.Is(err, strconv.ErrRange) {
		t.Fatalf("parseNumber(%q): %v, want a range error", b, err)
	}
}

// randDigits returns n random decimal digits.
func randDigits(rng *rand.Rand, n int) string {
	var sb strings.Builder
	for range n {
		sb.WriteByte(byte('0' + rng.Intn(10)))
	}
	return sb.String()
}

// TestParseNumberMatchesStrconv holds parseNumber to strconv.ParseFloat,
// bit for bit, on named edge cases and on more than 10⁶ seeded tokens
// from six generators that between them reach every conversion route:
// shortest forms of random bit patterns, 'f' forms over ±15 decades,
// random 1–24-digit mantissas with leading and trailing zeros and
// exponents up to ±25, 18-digit 'e' forms of random doubles and their
// last-digit neighbours, and decimal forms of exact halfway points
// between adjacent doubles, above 2⁵³ and on the division route.
func TestParseNumberMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "0.0", "-0.0e5", "0e-999", "1", "-1", "0.1", "0.5", "123.456",
		"9007199254740992", "9007199254740993", "9007199254740995", "18014398509481986",
		"18446744073709551615", "18446744073709551616", "99999999999999999999",
		"9223372036854775807", "0.9999999999999999999", "9999999999999999999e3",
		"1e19", "1e-19", "1e22", "1e23", "1e-22", "1e-23", "1234567890123456789e-19",
		"5e-324", "2e-324", "3e-324", "4.9406564584124654e-324", "2.2250738585072014e-308",
		"2.2250738585072011e-308", "1.7976931348623157e308", "1.7976931348623159e308",
		"1e400", "-1e400", "1e-400", "1E+2", "1e+06", "00", "01", "-", "-x", "1.", "1.e5",
		".5", "+1", "1e", "1e+", "1E-", "1ee", "0x10", "1_000", "", "1\xff\xff\xff\xff\xff\xff\xff", "12\x8a",
	} {
		checkNumber(t, []byte(s))
	}
	rng := rand.New(rand.NewSource(31))
	const perKind = 200_000
	for range perKind {
		// Shortest form of a random bit pattern.
		x := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			checkNumber(t, []byte(strconv.FormatFloat(x, 'g', -1, 64)))
		}
		// Plain decimal form over ±15 decades.
		x = (rng.Float64() + 0.5) * math.Pow(10, float64(rng.Intn(31)-15))
		if rng.Intn(2) == 0 {
			x = -x
		}
		checkNumber(t, []byte(strconv.FormatFloat(x, 'f', -1, 64)))
		// Random digits with leading and trailing zeros and an exponent.
		var sb strings.Builder
		if rng.Intn(2) == 0 {
			sb.WriteByte('-')
		}
		nd := 1 + rng.Intn(24)
		digits := strings.Repeat("0", rng.Intn(4)) + randDigits(rng, nd) + strings.Repeat("0", rng.Intn(6))
		digits = strings.TrimLeft(digits, "0")
		if p := rng.Intn(len(digits) + 1); digits == "" || p == 0 {
			sb.WriteString("0." + strings.Repeat("0", rng.Intn(8)) + digits + "1")
		} else if p == len(digits) {
			sb.WriteString(digits)
		} else {
			sb.WriteString(digits[:p] + "." + digits[p:])
		}
		if rng.Intn(3) > 0 {
			sb.WriteString([]string{"e", "E", "e+", "e-", "E-"}[rng.Intn(5)] + strconv.Itoa(rng.Intn(26)))
		}
		checkNumber(t, []byte(sb.String()))
		// An 18-digit form of a random double and its neighbours in the
		// last digit.
		x = math.Float64frombits(rng.Uint64() &^ (1 << 62)) // finite
		e := []byte(strconv.FormatFloat(x, 'e', 17, 64))
		checkNumber(t, e)
		last := strings.IndexByte(string(e), 'e') - 1
		e[last] = byte('0' + (int(e[last]-'0')+1+rng.Intn(9))%10)
		checkNumber(t, e)
		// An exact tie: an odd 54-bit integer is halfway between two
		// doubles, times 2^a as an integer or divided by 2^b ≤ 8 (b
		// decimals and a trailing zero, at most 20 digits).
		tie := uint64(1)<<53 | rng.Uint64()&(1<<53-1) | 1
		if a := rng.Intn(11); rng.Intn(2) == 0 {
			checkNumber(t, []byte(strconv.FormatUint(tie<<a, 10)))
		} else {
			b := rng.Intn(4) // tie/2^b = tie·5^b/10^b, below 2⁵⁴·125 < 2⁶⁴
			d := strconv.FormatUint(tie*[]uint64{1, 5, 25, 125}[b], 10)
			checkNumber(t, []byte(d[:len(d)-b]+"."+d[len(d)-b:]+"0"))
		}
	}
}

// FuzzParseNumber holds parseNumber on arbitrary bytes to refNumber for
// where the token ends or fails and why, and to strconv.ParseFloat for
// the value's bits and the range error.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "1.5", "9007199254740993", "18446744073709551615", "1e19", "1e-19",
		"0.1", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "1e400",
		"12345678.12345678e-3", "0.00000000000000000000000123", "1.", "-", "01", "1e+", "1,2",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkNumber(t, b) })
}
