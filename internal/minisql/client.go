package minisql

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// errConn marks a failure of the connection rather than of the statement:
// a send, a receive or an unexpected frame, or a closed client. The pool
// redials after one; an SQL error leaves the connection in service.
var errConn = errors.New("minisql: connection failed")

var errClosed = fmt.Errorf("%w: client is closed", errConn)

// Client is a connection to a minisql server. It serializes requests over a
// single TCP connection; use Pool for concurrency.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *frameReader
	w    frameWriter
}

// Dial connects to a minisql server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 5*time.Second)
}

// DialTimeout connects with a dial timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("minisql: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, r: newFrameReader(conn), w: frameWriter{w: conn}}, nil
}

// Execute runs one statement on the server.
func (c *Client) Execute(sql string, args ...Value) (Result, error) {
	var f frame
	if err := c.roundTrip(&frame{Type: frameQuery, SQL: sql, Args: args}, &f, frameResult); err != nil {
		return Result{}, err
	}
	if f.Err != "" {
		return Result{}, errors.New(f.Err)
	}
	return f.Result, nil
}

// Ping checks liveness; it returns whether the remote node currently accepts
// writes (i.e. believes itself master).
func (c *Client) Ping() (serving bool, err error) {
	var f frame
	if err := c.roundTrip(&frame{Type: framePing}, &f, framePong); err != nil {
		return false, err
	}
	return f.Serving, nil
}

// roundTrip sends req and reads the reply into f, which must be of type
// want. Any failure closes the connection and matches errConn.
func (c *Client) roundTrip(req, f *frame, want byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return errClosed
	}
	err := c.w.send(req)
	if err != nil {
		err = fmt.Errorf("%w: send: %w", errConn, err)
	} else if err = c.r.next(f); err != nil {
		err = fmt.Errorf("%w: recv: %w", errConn, err)
	} else if f.Type != want {
		err = fmt.Errorf("%w: unexpected frame type %d", errConn, f.Type)
	}
	if err != nil {
		c.closeLocked()
	}
	return err
}

func (c *Client) closeLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Close releases the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked()
	return nil
}

// Pool is a fixed-size pool of client connections to one server, suitable
// for concurrent callers.
type Pool struct {
	addr    string
	clients chan *Client
	size    int
	mu      sync.Mutex
	closed  bool
}

// NewPool creates a pool of size lazily dialed connections.
func NewPool(addr string, size int) *Pool {
	if size <= 0 {
		size = 4
	}
	p := &Pool{addr: addr, clients: make(chan *Client, size), size: size}
	for i := 0; i < size; i++ {
		p.clients <- nil // lazy slot
	}
	return p
}

// Execute borrows a connection, runs the statement, and returns the
// connection to the pool. Broken connections are re-dialed on next use.
func (p *Pool) Execute(sql string, args ...Value) (Result, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return Result{}, errors.New("minisql: pool is closed")
	}
	p.mu.Unlock()
	c := <-p.clients
	if c == nil {
		var err error
		c, err = Dial(p.addr)
		if err != nil {
			p.clients <- nil
			return Result{}, err
		}
	}
	res, err := c.Execute(sql, args...)
	if errors.Is(err, errConn) {
		c.Close()
		p.clients <- nil
		return res, err
	}
	p.clients <- c
	return res, err
}

// Close closes all pooled connections.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	for i := 0; i < p.size; i++ {
		if c := <-p.clients; c != nil {
			c.Close()
		}
	}
}
