package capread

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadAllAtCap: a body of exactly the cap reads whole; one byte
// more fails with an error naming the cap instead of truncating.
func TestReadAllAtCap(t *testing.T) {
	const max = 64
	body := bytes.Repeat([]byte("x"), max)
	got, err := ReadAll(bytes.NewReader(body), max)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("at cap: got %d bytes, err %v; want %d bytes, nil", len(got), err, max)
	}
	_, err = ReadAll(bytes.NewReader(append(body, 'y')), max)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("one byte over: err %v, want ErrTooLarge", err)
	}
	if !strings.Contains(err.Error(), "64 bytes") {
		t.Errorf("error %q does not name the cap", err)
	}
}

// TestJSONAtCap is the decode-level contract: a JSON document exactly
// at the cap decodes, and the same document one byte longer fails with
// ErrTooLarge, never with a truncated-JSON error.
func TestJSONAtCap(t *testing.T) {
	doc := []byte(`{"jobs":["a","b","c"]}`)
	var v struct{ Jobs []string }
	if err := json.NewDecoder(Reader(bytes.NewReader(doc), int64(len(doc)))).Decode(&v); err != nil || len(v.Jobs) != 3 {
		t.Fatalf("at cap: decoded %v, err %v", v.Jobs, err)
	}
	b, err := ReadAll(bytes.NewReader(append(doc, ' ')), int64(len(doc)))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("one byte over: read %d bytes, err %v; want ErrTooLarge", len(b), err)
	}
}

// TestReaderSmallReads: the cap holds across many short reads, and the
// over-cap error is sticky.
func TestReaderSmallReads(t *testing.T) {
	r := Reader(iotest.OneByteReader(strings.NewReader("abcdef")), 5)
	var got []byte
	buf := make([]byte, 3)
	var err error
	for err == nil {
		var n int
		n, err = r.Read(buf)
		got = append(got, buf[:n]...)
	}
	if string(got) != "abcde" || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %q, err %v", got, err)
	}
	if _, err := r.Read(buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("second read after the cap: err %v, want ErrTooLarge again", err)
	}
}

// TestUnderCapPassesEOF: a short body ends with a clean io.EOF.
func TestUnderCapPassesEOF(t *testing.T) {
	if err := iotest.TestReader(Reader(strings.NewReader("hello"), 100), []byte("hello")); err != nil {
		t.Fatal(err)
	}
}
