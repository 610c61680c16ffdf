// Package httpjson is the JSON codec every gpufreqd endpoint speaks, in
// both daemon modes and on the fleet routes: one document per request
// body, read through a byte cap; replies indented by two spaces; and every
// failure answered with the structured {"error": "..."} shape.
package httpjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Write writes v as a JSON reply with the given status.
func Write(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Error writes the structured {"error": ...} reply.
func Error(w http.ResponseWriter, status int, format string, args ...any) {
	Write(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// BodyError answers a failed request-body read: 413 when the body ran past
// the limit-byte cap, 400 for any other read failure.
func BodyError(w http.ResponseWriter, err error, limit int64) {
	if errors.As(err, new(*http.MaxBytesError)) {
		Error(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", limit)
		return
	}
	Error(w, http.StatusBadRequest, "reading request body: %v", err)
}

// Read decodes one JSON document from a POST body into v, reading at most
// limit bytes. Every malformed body fails the same way: 400 naming the
// problem, including trailing data after the document, which a plain
// Decode would silently ignore; a body past the cap is a 413, and any
// method but POST a 405. Read writes the error reply itself and reports
// whether decoding succeeded.
func Read(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	return read(w, r, limit, v, false)
}

// ReadOptional is Read for endpoints whose parameters are all optional: an
// empty body leaves v at its zero value.
func ReadOptional(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	return read(w, r, limit, v, true)
}

func read(w http.ResponseWriter, r *http.Request, limit int64, v any, allowEmpty bool) bool {
	if r.Method != http.MethodPost {
		Error(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	// Decode from the capped stream rather than buffering the body first:
	// a request then allocates only the decoder's own buffer.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if err := dec.Decode(v); err != nil {
		switch {
		case errors.As(err, new(*http.MaxBytesError)):
			BodyError(w, err, limit)
		case !errors.Is(err, io.EOF):
			Error(w, http.StatusBadRequest, "bad request body: %v", err)
		case allowEmpty:
			return true
		default:
			Error(w, http.StatusBadRequest, "empty request body")
		}
		return false
	}
	if dec.More() {
		Error(w, http.StatusBadRequest, "bad request body: trailing data after the JSON document")
		return false
	}
	return true
}

// ReadBody returns the raw body of a POST, reading at most limit bytes; on
// failure (405, or see BodyError) it writes the error reply and returns
// ok=false.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	if r.Method != http.MethodPost {
		Error(w, http.StatusMethodNotAllowed, "use POST")
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		BodyError(w, err, limit)
		return nil, false
	}
	return body, true
}
