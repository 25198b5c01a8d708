package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Decode is the request-body codec both node roles share: it reads r's
// JSON body once, whole, into v (a pointer to a zero value) and runs v's
// own Check, if it has one. A Content-Length over MaxBodyBytes is a 413
// before a byte is read, and a body that turns out longer, chunked or not,
// a 413 wherever its JSON value ends. Only JSON whitespace may follow that
// value. Decode writes the error response and reports whether v is usable.
func (sh *Shell) Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	status, msg := sh.decode(w, r, v)
	if status != 0 {
		WriteError(w, status, CodeForStatus(status), msg)
	}
	return status == 0
}

func (sh *Shell) decode(w http.ResponseWriter, r *http.Request, v any) (int, string) {
	limit := sh.cfg.MaxBodyBytes
	buf := jsonBufPool.Get().(*bytes.Buffer)
	defer putJSONBuf(buf)
	buf.Reset()
	var err error
	if r.ContentLength <= limit {
		// Room for ReadFrom to see EOF without growing; past what the pool
		// keeps, the buffer grows with the bytes that arrive, not the header.
		buf.Grow(int(min(r.ContentLength, maxPooledBufBytes)) + bytes.MinRead)
		_, err = buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	}
	if r.ContentLength > limit || err != nil && errors.As(err, new(*http.MaxBytesError)) {
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", limit)
	}
	if err == nil {
		err = DecodeJSON(buf.Bytes(), v)
	}
	if err != nil {
		return http.StatusBadRequest, fmt.Sprintf("malformed JSON body: %v", err)
	}
	if c, ok := v.(checked); ok {
		return c.Check(sh.cfg.MaxBatch)
	}
	return 0, ""
}

// DecodeJSON decodes one buffered JSON value into v, keeping no reference
// to b: in one pass if v can parse the plain shape and b has it, otherwise
// by encoding/json. The pass takes a subset of what the stdlib takes, to
// the same value, so the stdlib defines a body (FuzzDecodeRequest and
// FuzzSearchCodec compare). Only JSON whitespace may follow the value. It
// reads request bodies in Decode and backend answers in the coordinator.
func DecodeJSON(b []byte, v any) error {
	if p, ok := v.(interface{ parsePlain([]byte) bool }); ok && p.parsePlain(b) {
		return nil
	}
	if json.Unmarshal(b, v) == nil {
		return nil
	}
	// The streaming decoder words a refusal as it always has, and stops
	// where the first value ends: if it takes that, a tail follows.
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return err
	}
	return errors.New("trailing data")
}

// AppendJSON appends v's JSON encoding to b, byte for byte what
// json.Encoder writes, the trailing newline included: in one pass for a
// search request or response, by json.Encoder for any other value and for
// one the pass declines (a NaN or an infinity is the Encoder's error).
func AppendJSON(b []byte, v any) ([]byte, error) {
	if p, ok := v.(interface{ appendPlain([]byte) ([]byte, bool) }); ok {
		if out, ok := p.appendPlain(b); ok {
			return append(out, '\n'), nil
		}
	}
	buf := bytes.NewBuffer(b)
	err := json.NewEncoder(buf).Encode(v)
	return buf.Bytes(), err
}

// parsePlain decodes b if it has the plain shape: one JSON object, alone
// in b, whose keys are the struct's json names, exactly, each at most
// once, and whose values are strings (see text), numbers by the JSON
// grammar that fit the field, true or false, and for "records" an array of
// such objects. Anything else (an unknown, case-folded, escaped or repeated
// key, null, a syntax error, a tail) leaves *q untouched and returns false:
// encoding/json decides.
func (q *SearchRequest) parsePlain(b []byte) bool {
	c, p := cursor{b: b}, SearchRequest{}
	ok := c.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "name":
			return 1, c.text(&p.Name)
		case "data":
			return 2, c.text(&p.Data)
		case "k":
			return 4, c.integer(&p.K)
		case "min_similarity":
			return 8, c.float(&p.MinSimilarity)
		case "mode":
			return 16, c.text(&p.Mode)
		}
		return 0, false
	})
	if ok = ok && c.atEnd(); ok {
		*q = p
	}
	return ok
}

func (q *IngestRequest) parsePlain(b []byte) bool {
	c, p := cursor{b: b}, IngestRequest{}
	ok := c.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "records":
			p.Records = []IngestRecord{} // "records":[] decodes to empty, not nil
			return 1, c.list('[', ']', func() bool {
				var rec IngestRecord
				ok := c.object(func(key []byte) (uint, bool) {
					switch string(key) {
					case "name":
						return 1, c.text(&rec.Name)
					case "data":
						return 2, c.text(&rec.Data)
					}
					return 0, false
				})
				p.Records = append(p.Records, rec)
				return ok
			})
		case "detailed":
			return 2, c.boolean(&p.Detailed)
		}
		return 0, false
	})
	if ok = ok && c.atEnd(); ok {
		*q = p
	}
	return ok
}

// parsePlain reads a backend's answer on the coordinator, by the same
// rules, "results" being an array of hit objects.
func (r *SearchResponse) parsePlain(b []byte) bool {
	c, p := cursor{b: b}, SearchResponse{}
	ok := c.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "query":
			return 1, c.text(&p.Query)
		case "mode":
			return 2, c.text(&p.Mode)
		case "results":
			// Every hit opens a brace, so this holds them all ("results":[]
			// decodes to empty, not nil).
			p.Results = make([]SearchHit, 0, bytes.Count(c.b[c.i:], []byte{'{'}))
			return 4, c.list('[', ']', func() bool {
				var h SearchHit
				ok := c.object(func(key []byte) (uint, bool) {
					switch string(key) {
					case "rank":
						return 1, c.integer(&h.Rank)
					case "ref":
						return 2, c.text(&h.Ref)
					case "similarity":
						return 4, c.float(&h.Similarity)
					case "distance":
						return 8, c.float(&h.Distance)
					}
					return 0, false
				})
				p.Results = append(p.Results, h)
				return ok
			})
		case "partial":
			return 8, c.boolean(&p.Partial)
		}
		return 0, false
	})
	if ok = ok && c.atEnd(); ok {
		*r = p
	}
	return ok
}

// appendPlain writes q as json.Encoder does, less the newline, unless
// MinSimilarity is not finite.
func (q *SearchRequest) appendPlain(b []byte) ([]byte, bool) {
	if !finite(q.MinSimilarity) {
		return b, false
	}
	b = appendString(append(b, `{"name":`...), q.Name)
	b = appendString(append(b, `,"data":`...), q.Data)
	b = strconv.AppendInt(append(b, `,"k":`...), int64(q.K), 10)
	b = appendFloat(append(b, `,"min_similarity":`...), q.MinSimilarity)
	b = appendString(append(b, `,"mode":`...), q.Mode)
	return append(b, '}'), true
}

// appendPlain writes r as json.Encoder does, less the newline, unless a
// hit's score is not finite or Results is nil (the stdlib writes null).
func (r *SearchResponse) appendPlain(b []byte) ([]byte, bool) {
	if r.Results == nil {
		return b, false
	}
	b = appendString(append(b, `{"query":`...), r.Query)
	b = appendString(append(b, `,"mode":`...), r.Mode)
	b = append(b, `,"results":[`...)
	for i := range r.Results {
		h := &r.Results[i]
		if !finite(h.Similarity) || !finite(h.Distance) {
			return b, false
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"rank":`...), int64(h.Rank), 10)
		b = appendString(append(b, `,"ref":`...), h.Ref)
		b = appendFloat(append(b, `,"similarity":`...), h.Similarity)
		b = appendFloat(append(b, `,"distance":`...), h.Distance)
		b = append(b, '}')
	}
	b = append(b, ']')
	if r.Partial {
		b = append(b, `,"partial":true`...)
	}
	return append(b, '}'), true
}

// appendString writes s quoted, as is, when every byte of it stands for
// itself (plainLen) and none is a <, > or &, which encoding/json escapes
// for HTML; any other string is json.Marshal's to spell.
func appendString(b []byte, s string) []byte {
	if plainLen([]byte(s)) == len(s) && strings.IndexByte(s, '<') < 0 && strings.IndexByte(s, '>') < 0 && strings.IndexByte(s, '&') < 0 {
		return append(append(append(b, '"'), s...), '"')
	}
	lit, _ := json.Marshal(s) // a string always encodes
	return append(b, lit...)
}

// appendFloat writes a finite f as encoding/json does: 'f' format, or 'e'
// outside [1e-6, 1e21) with a one-digit negative exponent left unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// cursor walks a plain-shape body; its methods fail on anything else.
type cursor struct {
	b   []byte
	i   int
	out []byte // text's scratch
}

func (c *cursor) ws() {
	for c.i < len(c.b) && (c.b[c.i] == ' ' || c.b[c.i] == '\n' || c.b[c.i] == '\t' || c.b[c.i] == '\r') {
		c.i++
	}
}

func (c *cursor) atEnd() bool {
	c.ws()
	return c.i == len(c.b)
}

// eat skips whitespace, then consumes ch if it is next.
func (c *cursor) eat(ch byte) bool {
	c.ws()
	if c.i == len(c.b) || c.b[c.i] != ch {
		return false
	}
	c.i++
	return true
}

// list walks open item,item,... close; item consumes one element.
func (c *cursor) list(open, close byte, item func() bool) bool {
	if !c.eat(open) {
		return false
	}
	for first := true; !c.eat(close); first = false {
		if !first && !c.eat(',') || !item() {
			return false
		}
	}
	return true
}

// object walks {"key":value,...}: field, called with the cursor on key's
// value, returns key's bit and whether it took the value; an unknown key
// (no bit, false), one spelled with an escape or a repeated one fails it.
func (c *cursor) object(field func(key []byte) (uint, bool)) bool {
	var seen uint
	return c.list('{', '}', func() bool {
		if !c.eat('"') {
			return false
		}
		key := c.b[c.i:]
		n := plainLen(key)
		if n == len(key) || key[n] != '"' {
			return false
		}
		if c.i += n + 1; !c.eat(':') {
			return false
		}
		c.ws()
		bit, ok := field(key[:n])
		seen, ok = seen|bit, ok && seen&bit == 0
		return ok
	})
}

// text consumes a string literal into *dst, decoding what encoding/json
// decodes the same way for every writer: UTF-8, the two-character escapes
// and \u escapes of one UTF-16 unit. A control byte fails it, and so do the
// cases the stdlib mends with U+FFFD: invalid UTF-8 and surrogate escapes.
func (c *cursor) text(dst *string) bool {
	if !c.eat('"') {
		return false
	}
	s := c.b[c.i:]
	n := plainLen(s)
	if n < len(s) && s[n] == '"' { // nothing to decode
		*dst, c.i = string(s[:n]), c.i+n+1
		return true
	}
	if c.out == nil {
		c.out = make([]byte, 0, len(s)) // no string is longer, decoded, than the body left
	}
	out := c.out[:0]
	for ; n < len(s); n = plainLen(s) {
		out = append(out, s[:n]...)
		ch, size := s[n], 2
		switch {
		case ch == '"':
			*dst, c.i = string(out), len(c.b)-len(s)+n+1
			return true
		case ch >= 0x80:
			if _, size = utf8.DecodeRune(s[n:]); size == 1 { // invalid UTF-8
				return false
			}
			out = append(out, s[n:n+size]...)
		case ch != '\\' || n+1 == len(s):
			return false
		case s[n+1] == 'u':
			u, err := strconv.ParseUint(string(s[n+2:min(n+6, len(s))]), 16, 16)
			if size = 6; err != nil || n+size > len(s) || utf16.IsSurrogate(rune(u)) {
				return false
			}
			out = utf8.AppendRune(out, rune(u))
		default:
			e := strings.IndexByte(`"\/bfnrt`, s[n+1])
			if e < 0 {
				return false
			}
			out = append(out, "\"\\/\b\f\n\r\t"[e])
		}
		s = s[n+size:]
	}
	return false
}

// number consumes a JSON number by the grammar (strconv alone would take
// "+1", "0x10" and "1_0") and returns its bytes, or nil if none is next.
func (c *cursor) number() []byte {
	s, i := c.b[c.i:], 0
	digits := func() bool {
		n := i
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if !digits() {
		return nil
	}
	if i < len(s) && s[i] == '.' {
		if i++; !digits() {
			return nil
		}
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return nil
		}
	}
	c.i += i
	return s[:i]
}

// integer and float consume a number into *dst; one the field's type
// cannot hold fails them, as it fails encoding/json.
func (c *cursor) integer(dst *int) bool {
	n, err := strconv.Atoi(string(c.number()))
	*dst = n
	return err == nil
}

func (c *cursor) float(dst *float64) bool {
	f, err := strconv.ParseFloat(string(c.number()), 64)
	*dst = f
	return err == nil
}

// boolean consumes true or false into *dst.
func (c *cursor) boolean(dst *bool) bool {
	for _, lit := range [...]string{"false", "true"} {
		if bytes.HasPrefix(c.b[c.i:], []byte(lit)) {
			*dst, c.i = lit == "true", c.i+len(lit)
			return true
		}
	}
	return false
}

// plainLen returns how many leading bytes of s stand for themselves in a
// JSON string: 0x20..0x7F but '"' and '\\'. Eight at a time: (x-0x20..)&^x
// marks the lanes under 0x20 and (y-0x01..)&^y the zero lanes of y; a
// borrow only marks lanes above a true mark, so the lowest mark is true.
func plainLen(s []byte) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; len(s)-i >= 8; i += 8 {
		x := binary.LittleEndian.Uint64(s[i:])
		y, z := x^ones*'\\', x^ones*'"'
		if m := (x | (x-ones*0x20)&^x | (y-ones)&^y | (z-ones)&^z) & highs; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(s) && s[i] >= 0x20 && s[i] < 0x80 && s[i] != '\\' && s[i] != '"'; i++ {
	}
	return i
}
