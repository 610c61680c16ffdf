package main

import (
	"encoding/json"
	"errors"
	"io"
	"mime"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/colproto"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/httpjson"
)

// binaryContentType selects the length-prefixed binary framing of the
// batch endpoint (see internal/colproto); anything else is treated as the
// JSON framing. The response mirrors the request's framing.
const binaryContentType = "application/x-gpufreq-columns"

// maxBodyBytes bounds every daemon POST body (413 past it). 8 MiB fits a
// ~100k-kernel binary /predict/batch (10 float64 columns ≈ 80 B/kernel) —
// far past any sane request — while keeping the unauthenticated planes
// from being a memory-exhaustion vector: the claimed Content-Length is
// never trusted for preallocation beyond this, oversized bodies are cut
// off by http.MaxBytesReader, and batch buffers that grew past the cap
// are dropped instead of pooled.
const maxBodyBytes = 8 << 20

// batchBuffers is one request's worth of reusable batch-path memory:
// the raw body, the decoded columnar request, the transposed feature rows,
// the columnar response, and the encoded output. Recycled through
// batchBufPool so the steady-state handler path performs no allocations
// beyond what request decoding itself requires (none for the binary
// framing; pinned by the server's AllocsPerRun test).
type batchBuffers struct {
	body []byte
	cols colproto.Columns
	sts  []features.Static
	resp colproto.Fronts
	out  []byte
}

var batchBufPool = sync.Pool{New: func() any { return new(batchBuffers) }}

// putBatchBuffers returns a buffer set to the pool unless a pathological
// request grew its byte buffers past the body cap — those are dropped so
// one oversized request cannot permanently bloat the pool.
func putBatchBuffers(bb *batchBuffers) {
	if cap(bb.body) > maxBodyBytes || cap(bb.out) > maxBodyBytes {
		return
	}
	batchBufPool.Put(bb)
}

// readBody reads the request body into the reusable buffer, growing it as
// needed (io.ReadAll would allocate a fresh slice per request). The
// Content-Length-driven preallocation is capped at maxBodyBytes: the
// header is client-controlled and must not force an arbitrary allocation.
func (bb *batchBuffers) readBody(r *http.Request) error {
	bb.body = bb.body[:0]
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes && int64(cap(bb.body)) < n {
		bb.body = make([]byte, 0, n)
	}
	for {
		if len(bb.body) == cap(bb.body) {
			bb.body = append(bb.body, 0)[:len(bb.body)]
		}
		n, err := r.Body.Read(bb.body[len(bb.body):cap(bb.body)])
		bb.body = bb.body[:len(bb.body)+n]
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// handlePredictBatch is POST /predict/batch: the columnar batch prediction
// endpoint. The request carries one flat array per static code feature
// (JSON, or the binary framing selected by Content-Type
// application/x-gpufreq-columns); the response carries every kernel's
// Pareto set as offset-indexed flat columns in the same framing. The whole
// path — pooled request buffers, the engine's columnar PredictFrontsInto,
// handwritten response encoding — reuses memory across requests.
func (s *server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpjson.Error(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	version, pred, _, ok := s.serving.Current()
	if !ok {
		httpjson.Error(w, http.StatusServiceUnavailable,
			"no active model version (POST /train, or activate a stored version)")
		return
	}
	binaryReq := false
	if ct := r.Header.Get("Content-Type"); ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err == nil && mt == binaryContentType {
			binaryReq = true
		}
	}

	bb := batchBufPool.Get().(*batchBuffers)
	defer putBatchBuffers(bb)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := bb.readBody(r); err != nil {
		httpjson.BodyError(w, err, maxBodyBytes)
		return
	}
	if len(bb.body) == 0 {
		httpjson.Error(w, http.StatusBadRequest, "empty request body")
		return
	}
	if binaryReq {
		if err := bb.cols.ParseBinary(bb.body); err != nil {
			httpjson.Error(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		bb.cols.Reset()
		if err := json.Unmarshal(bb.body, &bb.cols); err != nil {
			httpjson.Error(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
	}
	if err := bb.cols.Validate(); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "%v", err)
		return
	}

	bb.sts = bb.cols.StaticsInto(bb.sts[:0])
	scratch := engine.GetBatchScratch()
	fronts := pred.PredictFrontsInto(scratch, bb.sts)
	bb.resp.Reset()
	bb.resp.Version = version
	for _, f := range fronts {
		bb.resp.AppendFront(f)
	}
	engine.PutBatchScratch(scratch)

	if binaryReq {
		bb.out = bb.resp.AppendBinary(bb.out[:0])
		w.Header().Set("Content-Type", binaryContentType)
	} else {
		bb.out = bb.resp.AppendJSON(bb.out[:0])
		w.Header().Set("Content-Type", "application/json")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(bb.out)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(bb.out)
}
