package httpjson

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestReadStatusesAndErrorShape(t *testing.T) {
	const limit = 16
	cases := []struct {
		name, body string
		method     string // "" = POST
		optional   bool
		status     int // 0 = decoded
		want       string
	}{
		{name: "document", body: `{"a": 1}`},
		{name: "empty", body: "", status: http.StatusBadRequest,
			want: "{\n  \"error\": \"empty request body\"\n}\n"},
		{name: "empty optional", body: "", optional: true},
		{name: "GET", body: `{"a": 1}`, method: http.MethodGet, status: http.StatusMethodNotAllowed,
			want: "{\n  \"error\": \"use POST\"\n}\n"},
		{name: "malformed", body: "{not", status: http.StatusBadRequest},
		{name: "trailing", body: `{"a": 1} x`, status: http.StatusBadRequest,
			want: "{\n  \"error\": \"bad request body: trailing data after the JSON document\"\n}\n"},
		{name: "over the cap", body: `{"a": "` + strings.Repeat("x", limit) + `"}`, status: http.StatusRequestEntityTooLarge,
			want: "{\n  \"error\": \"request body over 16 bytes\"\n}\n"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		method := http.MethodPost
		if tc.method != "" {
			method = tc.method
		}
		req := httptest.NewRequest(method, "/", strings.NewReader(tc.body))
		var v struct{ A any }
		read := Read
		if tc.optional {
			read = ReadOptional
		}
		ok := read(rec, req, limit, &v)
		if ok != (tc.status == 0) {
			t.Errorf("%s: ok = %v", tc.name, ok)
			continue
		}
		if tc.status == 0 {
			continue
		}
		if rec.Code != tc.status || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: %d %q", tc.name, rec.Code, rec.Header().Get("Content-Type"))
		}
		if tc.want != "" && rec.Body.String() != tc.want {
			t.Errorf("%s: reply %q, want %q", tc.name, rec.Body, tc.want)
		}
	}
}

func TestReadBodyCap(t *testing.T) {
	rec := httptest.NewRecorder()
	body, ok := ReadBody(rec, httptest.NewRequest(http.MethodPost, "/", strings.NewReader("0123456789")), 10)
	if !ok || string(body) != "0123456789" {
		t.Fatalf("at the cap: %q %v", body, ok)
	}
	rec = httptest.NewRecorder()
	if _, ok := ReadBody(rec, httptest.NewRequest(http.MethodPost, "/", strings.NewReader("0123456789x")), 10); ok ||
		rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("past the cap: ok=%v status %d", ok, rec.Code)
	}
}
