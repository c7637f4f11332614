// Package capread reads size-capped bodies. A plain io.LimitReader
// ends a body at its cap with io.EOF, so an oversized HTTP response
// decodes as truncated JSON or, worse, as a shorter valid document.
// Here going past the cap is an explicit error that names the cap.
package capread

import (
	"errors"
	"fmt"
	"io"
)

// ErrTooLarge is wrapped by every error reporting a body over its cap.
var ErrTooLarge = errors.New("body over its size cap")

// Reader returns a reader yielding r's bytes up to max. A body of
// exactly max bytes ends with io.EOF as usual; a longer one fails with
// an error wrapping ErrTooLarge once the cap is reached.
func Reader(r io.Reader, max int64) io.Reader {
	return &reader{r: r, left: max, max: max}
}

// ReadAll reads r to the end, failing with an error wrapping
// ErrTooLarge if it holds more than max bytes.
func ReadAll(r io.Reader, max int64) ([]byte, error) {
	return io.ReadAll(Reader(r, max))
}

type reader struct {
	r         io.Reader
	left, max int64
	err       error // sticky over-cap error
}

func (c *reader) Read(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if c.left == 0 {
		// At the cap: one probe byte tells a body that ends here from
		// one that goes on.
		var probe [1]byte
		if _, err := io.ReadFull(c.r, probe[:]); err != nil {
			return 0, err // io.EOF: the body was exactly max bytes
		}
		c.err = fmt.Errorf("%w of %d bytes", ErrTooLarge, c.max)
		return 0, c.err
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.r.Read(p)
	c.left -= int64(n)
	return n, err
}
