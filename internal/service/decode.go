package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"unicode/utf8"
)

// bodyLimit is the largest request body accepted under a MaxNodes cap.
// A .tree line is at least ~10 bytes, so this bounds the body well
// above any in-limit tree while stopping unbounded uploads early.
func bodyLimit(maxNodes int) int64 {
	return int64(maxNodes)*128 + 1<<20
}

// decodeRequest reads one Request body under the shared size limit,
// writing the 413/400 rejection itself on failure. Both the
// synchronous and the asynchronous submission handlers go through it,
// so the limit and the decode policy cannot diverge. The caller must
// hold a worker-pool slot: buffering and decoding a near-limit payload
// is as attacker-reachable as the simulation.
//
// The body is read once, into buf. A complete body goes through
// decodeBody; a read that failed (over the limit, client gone) replays
// what arrived followed by the error through decodeWhole, which is
// exactly what a streaming decoder over the body would have seen. The
// Request may point into buf (Request.lit), so buf must not be reused
// while the Request is.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) (*Request, bool) {
	limit := bodyLimit(s.opts.MaxNodes)
	body, err := readBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit, buf)
	var req *Request
	if err == nil {
		req, err = decodeBody(body, s.cache.knows)
	} else {
		req, err = decodeWhole(io.MultiReader(bytes.NewReader(body), errReader{err}))
	}
	if err == nil {
		return req, true
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		s.reject(w, fail(http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit))
	case errors.Is(err, errTrailing):
		s.reject(w, fail(http.StatusBadRequest, "bad request: trailing data"))
	default:
		s.reject(w, fail(http.StatusBadRequest, "bad request: %v", err))
	}
	return nil, false
}

// readBody reads r to its end into buf, emptied and presized from the
// Content-Length hint clamped to [0, limit]: a truthful header costs at
// most one allocation — none on a recycled buffer that is already large
// enough — and a lying one cannot allocate past the limit the reader
// enforces anyway.
func readBody(r io.Reader, hint, limit int64, buf *bytes.Buffer) ([]byte, error) {
	buf.Reset()
	buf.Grow(int(min(max(hint, 0), limit)) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// bodyPool recycles /schedule's body buffers, so a warm request neither
// allocates nor zeroes its ~600 kB body. Only a handler that drops its
// Request before returning may take one: POST /jobs reads into a fresh
// buffer, because a queued job's Request.lit points into its body.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// errReader fails every read with its error.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// errTrailing reports data after the one JSON value of a body.
var errTrailing = errors.New("trailing data")

// decodeWhole is the reference decode of a body, and the only producer
// of decode errors: encoding/json over the stream, unknown fields
// refused, exactly one value. Data after the value — even bytes that
// are not JSON — is errTrailing, unless reading it hit the size limit.
func decodeWhole(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	_, err := dec.Token()
	if errors.Is(err, io.EOF) {
		return &req, nil
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return nil, err
	}
	return nil, errTrailing
}

// decodeBody decodes a complete body to the Request decodeWhole would
// return, or fails with decodeWhole's error. An inline tree is most of
// a warm request's bytes, and encoding/json's scanner and unquote are
// most of its decode time, so when liftTree can take the tree literal
// out, encoding/json decodes only the rest. The literal is keyed by the
// SHA-256 of its bytes. A key known reports is a text alias: its
// literal was unquoted, parsed and validated before, verdicts of its
// bytes alone, so it is carried as it is; any other is unquoted here.
// Any doubt — the rest does not decode, or decodes with a tree of its
// own, or unquoteTree refuses the literal — falls back to the whole body.
func decodeBody(body []byte, known func(textDigest) bool) (*Request, error) {
	if rest, lit, ok := liftTree(body); ok {
		if req, err := decodeWhole(bytes.NewReader(rest)); err == nil && req.Tree == "" {
			d := sha256.Sum256(lit)
			req.litKey = &d
			if known(d) {
				req.lit = lit
				return req, nil
			}
			if req.Tree, ok = unquoteTree(lit); ok {
				return req, nil
			}
		}
	}
	return decodeWhole(bytes.NewReader(body))
}

// liftTree finds the string member of body's top-level object whose
// key matches "tree" as encoding/json matches field names
// (bytes.EqualFold), and returns body with that literal replaced by
// "" together with the literal's bytes between its quotes, escapes and
// all. It walks only the top-level object, skipping other values
// without decoding them, and gives up (ok false) on anything it does
// not expect: a key with an escape, a second tree-like key, a
// non-string tree or malformed structure. On valid JSON the walk sees
// the tokens encoding/json sees, so a rest that decodes, with a
// literal unquoteTree accepts, means the body decodes to the same
// Request with Tree = the literal unquoted.
func liftTree(body []byte) (rest, literal []byte, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, nil, false
	}
	lit := -1 // offset of the tree literal's opening quote
	litEnd := 0
	i = skipSpace(body, i+1)
	for {
		if i == len(body) || body[i] != '"' {
			return nil, nil, false
		}
		end := i + 1
		for end < len(body) && body[end] != '"' && body[end] != '\\' {
			end++
		}
		if end == len(body) || body[end] == '\\' {
			return nil, nil, false
		}
		key := body[i+1 : end]
		i = skipSpace(body, end+1)
		if i == len(body) || body[i] != ':' {
			return nil, nil, false
		}
		i = skipSpace(body, i+1)
		if bytes.EqualFold(key, []byte("tree")) {
			if lit >= 0 || i == len(body) || body[i] != '"' {
				return nil, nil, false
			}
			// unquoteTree refuses \", so the first quote closes any
			// literal it accepts.
			n := bytes.IndexByte(body[i+1:], '"')
			if n < 0 {
				return nil, nil, false
			}
			lit, litEnd = i, i+n+2
			i = litEnd
		} else if i, ok = skipValue(body, i); !ok {
			return nil, nil, false
		}
		i = skipSpace(body, i)
		if i == len(body) {
			return nil, nil, false
		}
		if body[i] == '}' {
			break
		}
		if body[i] != ',' {
			return nil, nil, false
		}
		i = skipSpace(body, i+1)
	}
	if lit < 0 {
		return nil, nil, false
	}
	rest = make([]byte, 0, len(body)-(litEnd-lit)+2)
	rest = append(append(append(rest, body[:lit]...), `""`...), body[litEnd:]...)
	return rest, body[lit+1 : litEnd-1], true
}

// skipSpace returns the offset of the first non-whitespace byte of
// body at or after i.
func skipSpace(body []byte, i int) int {
	for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
		i++
	}
	return i
}

// skipValue returns the offset just past the JSON value starting at
// body[i]. It tracks strings and nesting only; whether the value is
// valid is left to encoding/json, which decodes these bytes unchanged.
func skipValue(body []byte, i int) (int, bool) {
	if i == len(body) {
		return i, false
	}
	switch body[i] {
	case '"':
		return skipString(body, i)
	case '{', '[':
		depth := 0
		for i < len(body) {
			switch body[i] {
			case '"':
				var ok bool
				if i, ok = skipString(body, i); !ok {
					return i, false
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1, true
				}
			}
			i++
		}
		return i, false
	}
	start := i
	for i < len(body) && strings.IndexByte(",}] \t\n\r", body[i]) < 0 {
		i++
	}
	return i, i > start
}

// skipString returns the offset just past the string literal whose
// opening quote is body[i].
func skipString(body []byte, i int) (int, bool) {
	for i++; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			return i + 1, true
		}
	}
	return i, false
}

// unescape maps the second byte of each escape unquoteTree accepts to
// the byte it stands for; zero means give up. \" and \u are absent:
// refusing \" keeps the first quote the closing one, and \u would need
// encoding/json's surrogate handling.
var unescape = [256]byte{'n': '\n', 't': '\t', 'r': '\r', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f'}

// unquoteTree unquotes the contents of a JSON string literal to the
// text encoding/json would produce, in one pass and one allocation, or
// gives up (ok false) on any byte or escape where agreeing with
// encoding/json would take more than copying: a raw byte below 0x20
// (invalid JSON), invalid UTF-8 (encoding/json substitutes U+FFFD), or
// an escape outside the unescape table.
func unquoteTree(s []byte) (string, bool) {
	var b strings.Builder
	b.Grow(len(s))
	run := 0 // start of the bytes not yet copied
	for i := 0; i < len(s); {
		if i+8 <= len(s) && plain8(binary.LittleEndian.Uint64(s[i:])) {
			i += 8
			continue
		}
		c := s[i]
		switch {
		case c >= 0x20 && c < utf8.RuneSelf && c != '\\':
			i++
		case c == '\\':
			if i+1 == len(s) || unescape[s[i+1]] == 0 {
				return "", false
			}
			b.Write(s[run:i])
			b.WriteByte(unescape[s[i+1]])
			i += 2
			run = i
		case c < 0x20:
			return "", false
		default:
			r, n := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && n == 1 {
				return "", false
			}
			i += n
		}
	}
	b.Write(s[run:])
	return b.String(), true
}

// plain8 reports whether all eight bytes packed in x are printable
// ASCII other than a backslash — bytes unquoteTree copies as they are.
// A byte below 0x20 borrows into its high bit when 0x20 is subtracted,
// and a backslash is the zero byte of x ^ '\'s; a flagged byte may
// flag its neighbours, which only sends the chunk to the byte loop.
func plain8(x uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	y := x ^ ones*'\\'
	return (x|(x-ones*0x20)|(y-ones)&^y)&highs == 0
}
