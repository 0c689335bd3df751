package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
)

// conn is one keep-alive HTTP/1.1 connection to the server, written by hand
// so that a workload's "one connection" is exactly one socket driven from
// the calling goroutine: no pool, no background goroutines, nothing between
// the timed call and the wire but a request write and a response read.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte // the last response body; reused by the next call
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one request and reads its whole response. A nil body sends a GET.
// The returned slice is valid until the next call.
func (c *conn) do(path string, body []byte) (status int, resp []byte, err error) {
	if body == nil {
		fmt.Fprintf(c.bw, "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n", path)
	} else {
		c.bw.WriteString("POST ")
		c.bw.WriteString(path)
		c.bw.WriteString(" HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: ")
		c.bw.WriteString(strconv.Itoa(len(body)))
		c.bw.WriteString("\r\n\r\n")
		c.bw.Write(body)
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	r, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	c.buf, err = readInto(c.buf[:0], r.Body)
	return r.StatusCode, c.buf, err
}

// readInto appends everything r yields to buf.
func readInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
