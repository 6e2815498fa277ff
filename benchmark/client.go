package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
)

// conn is one keep-alive HTTP/1.1 connection that only knows how to
// POST a body and read the answer. net/http's client costs more CPU per
// request than rbqd's whole handler and runs two goroutines per
// connection; on a host where generator and server share the CPUs that
// is measured latency and noise the program under test did not cause.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	out  []byte
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), host: addr}, nil
}

func (c *conn) close() { c.c.Close() }

// post sends body to path and returns the status code and the response
// body; the returned slice is reused by the next call.
func (c *conn) post(path string, body []byte) (int, []byte, error) {
	c.out = c.out[:0]
	c.out = append(c.out, "POST "...)
	c.out = append(c.out, path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: "...)
	c.out = append(c.out, c.host...)
	c.out = append(c.out, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.out = strconv.AppendInt(c.out, int64(len(body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, body...)
	if _, err := c.c.Write(c.out); err != nil {
		return 0, nil, err
	}

	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if err := c.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, fmt.Errorf("response with neither Content-Length nor chunked encoding")
	}
	return status, c.body, nil
}

// readBody appends the next n bytes of the stream to c.body.
func (c *conn) readBody(n int) error {
	at := len(c.body)
	if need := at + n; need > cap(c.body) {
		c.body = append(make([]byte, 0, 2*need), c.body...)
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}
