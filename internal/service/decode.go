package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// decodePartition decodes a POST /v1/partition body as a json.Decoder
// with DisallowUnknownFields decodes it into a PartitionRequest: it
// accepts the same bodies, gives the same fields and the same error
// text. The inline graph comes back as its own text, in place of
// req.Graph, which is left empty.
//
// An inline graph is a megabyte-long JSON string, and the rest of the
// body a few dozen bytes. So the fast path finds the top-level "graph"
// member's string literal, checks it, hands encoding/json only the rest
// of the object (the literal replaced by a placeholder) and, once that
// decodes, undoes the literal's escapes in place in body. Any body it
// does not take, and every body that fails, is decoded whole by
// encoding/json, which then makes the decision and writes the error.
func decodePartition(body []byte) (PartitionRequest, []byte, error) {
	if req, text, ok := decodeInline(body); ok {
		return req, text, nil
	}
	var req PartitionRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return PartitionRequest{}, nil, err
	}
	text := []byte(req.Graph)
	req.Graph = ""
	return req, text, nil
}

// partitionFields receives the members of a body other than its inline
// graph. The graph member's value is the placeholder 0; the slot counts
// every member encoding/json maps to the graph field, whatever its case
// or escapes, so a second one is seen.
type partitionFields struct {
	PartitionRequest
	Graph graphSlot `json:"graph"`
}

// graphSlot counts the values decoded into it.
type graphSlot int

func (g *graphSlot) UnmarshalJSON([]byte) error {
	*g++
	return nil
}

// decodeInline is decodePartition's fast path. It takes a body that is
// an object, after optional white space, with one top-level member whose
// key is the bytes "graph" and whose value is a string literal, and it
// reports false, with body unchanged, for any other body and for one
// encoding/json would refuse. Bytes after the object are ignored, as
// json.Decoder.Decode ignores them.
func decodeInline(body []byte) (PartitionRequest, []byte, bool) {
	obj, lit, escaped, ok := findGraph(body)
	if !ok {
		return PartitionRequest{}, nil, false
	}
	rest := make([]byte, 0, obj.end-obj.start-(lit.end-lit.start)+1)
	rest = append(rest, body[obj.start:lit.start]...)
	rest = append(rest, '0')
	rest = append(rest, body[lit.end:obj.end]...)
	var f partitionFields
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil || f.Graph != 1 {
		return PartitionRequest{}, nil, false
	}
	text := body[lit.start+1 : lit.end-1]
	if escaped {
		text = unescapeInPlace(text)
	}
	return f.PartitionRequest, text, true
}

// span is the byte range [start, end) of a body.
type span struct{ start, end int }

// findGraph walks the top-level members of the object body holds and
// returns the object's span, the span of the "graph" member's string
// literal (quotes included) and whether the literal holds escapes. It
// checks only what it needs to find them, and the literal: the rest of
// the object is left to encoding/json. ok is false for any body it does
// not take, for a literal encoding/json would refuse and for one whose
// unescaped text would not fit in place (invalid UTF-8, which becomes
// U+FFFD).
func findGraph(body []byte) (obj, lit span, escaped, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return
	}
	obj.start = i
	found := false
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return // no members, so no graph
	}
	for {
		if i == len(body) || body[i] != '"' {
			return
		}
		keyEnd, _, valid := scanString(body, i)
		if !valid {
			return
		}
		key := body[i+1 : keyEnd-1]
		i = skipSpace(body, keyEnd)
		if i == len(body) || body[i] != ':' {
			return
		}
		i = skipSpace(body, i+1)
		if i == len(body) {
			return
		}
		if string(key) == "graph" && body[i] == '"' {
			if found {
				return
			}
			end, esc, valid := scanString(body, i)
			if !valid {
				return
			}
			found, lit, escaped = true, span{i, end}, esc
			i = end
		} else if i = skipValue(body, i); i < 0 {
			return
		}
		i = skipSpace(body, i)
		if i == len(body) {
			return
		}
		if body[i] == '}' {
			obj.end = i + 1
			return obj, lit, escaped, found
		}
		if body[i] != ',' {
			return
		}
		i = skipSpace(body, i+1)
	}
}

// skipSpace returns the index of the first byte of b at or after i that
// is not JSON white space.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipValue returns the index just past the JSON value starting at b[i],
// or -1 when its end is not found. Only the value's extent is found, by
// its strings and brackets; encoding/json checks its syntax.
func skipValue(b []byte, i int) int {
	depth := 0
	for i < len(b) {
		switch b[i] {
		case '"':
			end, _, valid := scanString(b, i)
			if !valid {
				return -1
			}
			if depth == 0 {
				return end
			}
			i = end
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
		i++
	}
	return -1
}

// scanString checks the JSON string literal starting at b[i] (a quote)
// and returns the index just past it and whether it holds escapes. valid
// is false when the literal is unterminated, holds a control character or
// a bad escape, as encoding/json refuses, or holds invalid UTF-8.
func scanString(b []byte, i int) (end int, escaped, valid bool) {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	for j := i + 1; j < len(b); {
		if len(b)-j >= 8 {
			// Eight bytes at once. Each term flags, exactly at its first
			// hit, a byte below ' ', a quote, a backslash or a byte of
			// 0x80 or more, so the lowest flag is the first byte that
			// does not stand for itself.
			w := binary.LittleEndian.Uint64(b[j:])
			q, s := w^(lo*'"'), w^(lo*'\\')
			special := ((w-lo*' ')&^w | (q-lo)&^q | (s-lo)&^s | w) & hi
			if special == 0 {
				j += 8
				continue
			}
			j += bits.TrailingZeros64(special) / 8
		}
		switch c := b[j]; {
		case c == '"':
			return j + 1, escaped, true
		case c == '\\':
			if j+1 == len(b) {
				return
			}
			switch b[j+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				j += 2
			case 'u':
				if getu4(b[j:]) < 0 {
					return
				}
				j += 6
			default:
				return
			}
			escaped = true
		case c < ' ':
			return
		case c < utf8.RuneSelf:
			j++
		default:
			r, size := utf8.DecodeRune(b[j:])
			if r == utf8.RuneError && size == 1 {
				return
			}
			j += size
		}
	}
	return
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unescapeInPlace undoes the escapes of s, the inside of a literal
// scanString accepted, as encoding/json does: an unpaired surrogate
// becomes U+FFFD. No escape is shorter than what it stands for, so the
// text is written over s and returned as a prefix of it.
func unescapeInPlace(s []byte) []byte {
	w := bytes.IndexByte(s, '\\')
	if w < 0 {
		return s
	}
	r := w
	for r < len(s) {
		if s[r] != '\\' {
			j := bytes.IndexByte(s[r:], '\\')
			if j < 0 {
				j = len(s) - r
			}
			w += copy(s[w:], s[r:r+j])
			r += j
			continue
		}
		switch c := s[r+1]; c {
		case 'u':
			rr := getu4(s[r:])
			r += 6
			if utf16.IsSurrogate(rr) {
				if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
					r += 6
					w += utf8.EncodeRune(s[w:], dec)
					continue
				}
				rr = unicode.ReplacementChar
			}
			w += utf8.EncodeRune(s[w:], rr)
			continue
		case 'b':
			s[w] = '\b'
		case 'f':
			s[w] = '\f'
		case 'n':
			s[w] = '\n'
		case 'r':
			s[w] = '\r'
		case 't':
			s[w] = '\t'
		default: // '"', '\\' and '/' stand for themselves
			s[w] = c
		}
		r += 2
		w++
	}
	return s[:w]
}
