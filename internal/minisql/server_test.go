package minisql

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Server, *Engine) {
	t.Helper()
	e := NewEngine()
	srv, err := NewServer(e, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, e
}

func TestClientServerRoundTrip(t *testing.T) {
	srv, _ := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(`CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(`INSERT INTO t VALUES (?, ?)`, Int(1), Text("hello"))
	if err != nil || res.Affected != 1 {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	res, err = c.Execute(`SELECT v FROM t WHERE id = ?`, Int(1))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != Text("hello") {
		t.Fatalf("select: %+v, %v", res, err)
	}
}

func TestServerReturnsSQLErrors(t *testing.T) {
	srv, _ := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(`SELECT * FROM missing`); err == nil {
		t.Fatal("no error for missing table")
	}
	// Connection still usable after a SQL error.
	if _, err := c.Execute(`CREATE TABLE t (id INT PRIMARY KEY)`); err != nil {
		t.Fatalf("connection broken after SQL error: %v", err)
	}
}

func TestServerPing(t *testing.T) {
	srv, _ := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	serving, err := c.Ping()
	if err != nil || !serving {
		t.Fatalf("ping: %v %v", serving, err)
	}
	srv.SetReadOnly(true)
	serving, err = c.Ping()
	if err != nil || serving {
		t.Fatalf("ping on standby: %v %v", serving, err)
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	srv, e := startServer(t)
	if _, err := e.Execute(`CREATE TABLE t (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	srv.SetReadOnly(true)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("write accepted on standby")
	}
	if _, err := c.Execute(`SELECT * FROM t`); err != nil {
		t.Fatalf("read rejected on standby: %v", err)
	}
}

func TestPoolConcurrentClients(t *testing.T) {
	srv, e := startServer(t)
	if _, err := e.Execute(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(srv.Addr(), 8)
	defer pool.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := int64(w*1000 + i)
				if _, err := pool.Execute(`INSERT INTO t VALUES (?, ?)`, Int(id), Int(id)); err != nil {
					t.Errorf("insert %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	res, err := pool.Execute(`SELECT COUNT(*) FROM t`)
	if err != nil || res.Rows[0][0] != Int(400) {
		t.Fatalf("count = %+v, %v", res, err)
	}
}

// TestPoolKeepsConnectionAfterSQLError: an SQL error that quotes the words
// of a connection failure is still an SQL error, and the pool keeps the
// connection that carried it.
func TestPoolKeepsConnectionAfterSQLError(t *testing.T) {
	srv, e := startServer(t)
	mustExec(t, e, `CREATE TABLE t (k TEXT PRIMARY KEY)`)
	pool := NewPool(srv.Addr(), 1)
	defer pool.Close()
	insert := func() error {
		_, err := pool.Execute(`INSERT INTO t VALUES (?)`, Text("minisql: recv"))
		return err
	}
	if err := insert(); err != nil {
		t.Fatal(err)
	}
	c := <-pool.clients
	pool.clients <- c
	if err := insert(); err == nil {
		t.Fatal("duplicate key inserted")
	}
	kept := <-pool.clients
	pool.clients <- kept
	if kept != c {
		t.Fatalf("pool slot is %p after an SQL error, want the connection %p kept", kept, c)
	}
}

// TestOversizedFrameClosesOnlyItsConnection: a length prefix above the cap
// is answered by closing that connection, before anything is allocated for
// it; a client already connected and one that connects later are served.
func TestOversizedFrameClosesOnlyItsConnection(t *testing.T) {
	srv, e := startServer(t)
	mustExec(t, e, `CREATE TABLE t (id INT PRIMARY KEY)`)
	before, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(binary.BigEndian.AppendUint32(nil, maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server answered an oversized frame: read %d bytes, %v", n, err)
	}
	after, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if _, err := before.Execute(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatalf("client connected before the bad frame: %v", err)
	}
	if res, err := after.Execute(`SELECT COUNT(*) FROM t`); err != nil || res.Rows[0][0] != Int(1) {
		t.Fatalf("client connected after the bad frame: count = %+v, %v", res, err)
	}
}

func TestPoolRedialsAfterServerRestart(t *testing.T) {
	e := NewEngine()
	srv, err := NewServer(e, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	pool := NewPool(addr, 1)
	defer pool.Close()
	if _, err := pool.Execute(`CREATE TABLE t (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// First call after close fails.
	if _, err := pool.Execute(`SELECT * FROM t`); err == nil {
		t.Fatal("expected failure after server close")
	}
	// Restart on the same address; pool must redial.
	srv2, err := NewServer(e, addr, nil)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	var ok bool
	for i := 0; i < 20; i++ {
		if _, err := pool.Execute(`SELECT * FROM t`); err == nil {
			ok = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		t.Fatal("pool did not recover after restart")
	}
}

func TestReplicationSnapshotAndStream(t *testing.T) {
	srv, master := startServer(t)
	if _, err := master.Execute(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := master.Execute(`INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Int(0)); err != nil {
			t.Fatal(err)
		}
	}
	standby := NewEngine()
	rep := NewReplica(standby)
	if err := rep.Follow(srv.Addr()); err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	// Snapshot applied synchronously.
	if n, _ := standby.rowCount("t"); n != 50 {
		t.Fatalf("standby rows after snapshot = %d", n)
	}
	// Live stream.
	for i := 50; i < 80; i++ {
		if _, err := master.Execute(`INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n, _ := standby.rowCount("t"); n == 80 {
			break
		}
		if time.Now().After(deadline) {
			n, _ := standby.rowCount("t")
			t.Fatalf("standby rows = %d, want 80 (applied=%d, err=%v)", n, rep.Applied(), rep.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("replication error: %v", err)
	}
	// A table created after Follow travels in the stream.
	mustExec(t, master, `CREATE TABLE t2 (k TEXT PRIMARY KEY)`)
	mustExec(t, master, `INSERT INTO t2 VALUES ('a'), ('b')`)
	waitApplied(t, rep, master, "t2")
	sameRows(t, master, standby, "t2")
}

// TestFailedWriteChangesNothing: a statement that fails on a later row must
// leave every earlier row unwritten, and take no sequence number: master and
// standby both end with only the statements that succeeded.
func TestFailedWriteChangesNothing(t *testing.T) {
	srv, master := startServer(t)
	mustExec(t, master, `CREATE TABLE qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`)
	mustExec(t, master, `INSERT INTO qos_rules VALUES ('x', 1, 1, 1), ('y', 1, 1, 1)`)
	standby := NewEngine()
	rep := NewReplica(standby)
	if err := rep.Follow(srv.Addr()); err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	head := master.Snapshot().At.Seq

	for _, sql := range []string{
		`REPLACE INTO qos_rules VALUES ('a', 1, 1, 1), ('b', 'not-a-number', 1, 1)`,
		`INSERT INTO qos_rules VALUES ('c', 1, 1, 1), ('c', 2, 2, 2)`,
		`INSERT INTO qos_rules VALUES ('d', 1, 1, 1), ('x', 2, 2, 2)`,
		`INSERT INTO qos_rules VALUES ('e', 1, 1, 1), (NULL, 1, 1, 1)`,
		`INSERT INTO qos_rules VALUES ('f', 1, 1, 1), (?, 1, 1, 1)`,
		`UPDATE qos_rules SET key = 'z', credit = 9`,
		`UPDATE qos_rules SET credit = 9, key = 'y' WHERE key = 'x'`,
	} {
		if _, err := master.Execute(sql); err == nil {
			t.Fatalf("%s succeeded", sql)
		}
	}
	if now := master.Snapshot().At.Seq; now != head {
		t.Fatalf("failed statements moved the sequence %d -> %d", head, now)
	}
	mustExec(t, master, `REPLACE INTO qos_rules VALUES ('ok', 1, 1, 1)`)
	waitApplied(t, rep, master, "qos_rules")
	if n := rep.Applied(); n != head+1 {
		t.Fatalf("standby reached %d, want %d (failed statements took numbers)", n, head+1)
	}
	if m := sameRows(t, master, standby, "qos_rules"); len(m) != 3 {
		t.Fatalf("master and standby hold %v; want x, y and ok", m)
	}
}

// waitApplied waits until rep has applied every write the master numbered
// in table.
func waitApplied(t *testing.T, rep *Replica, master *Engine, table string) {
	t.Helper()
	head, _ := feedState(t, master, table)
	waitFor(t, func() bool { return rep.Applied() >= head })
}

// sameRows fails unless master and standby hold the same rows in table, and
// returns them.
func sameRows(t *testing.T, master, standby *Engine, table string) [][]Value {
	t.Helper()
	schema, err := master.schemaOf(table)
	if err != nil {
		t.Fatal(err)
	}
	all := `SELECT * FROM ` + table + ` ORDER BY ` + schema[0].name
	m, s := mustExec(t, master, all), mustExec(t, standby, all)
	if fmt.Sprint(m.Rows) != fmt.Sprint(s.Rows) {
		t.Fatalf("%s diverged: master holds %d rows, standby %d", table, len(m.Rows), len(s.Rows))
	}
	return m.Rows
}

// TestStalledStandbyCatchesUp: a standby that stops applying while the
// master takes a long burst is not dropped. Once it applies again it reaches
// the master's head, a write made after the burst included, and it never
// reports an error.
func TestStalledStandbyCatchesUp(t *testing.T) {
	srv, master := startServer(t)
	mustExec(t, master, `CREATE TABLE qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`)
	standby := NewEngine()
	rep := NewReplica(standby)
	if err := rep.Follow(srv.Addr()); err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	standby.writeMu.Lock()
	for i := 0; i < 200_000; i++ {
		mustExec(t, master, `REPLACE INTO qos_rules VALUES (?, 1, 1, ?)`, Text(fmt.Sprintf("k%03d", i%1000)), Float(float64(i)))
	}
	standby.writeMu.Unlock()
	mustExec(t, master, `REPLACE INTO qos_rules VALUES ('last', 1, 1, 1)`)
	waitApplied(t, rep, master, "qos_rules")
	if n := len(sameRows(t, master, standby, "qos_rules")); n != 1001 {
		t.Fatalf("%d rows, want 1001", n)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("replication error: %v", err)
	}
}

// relay forwards each connection it accepts to a server; cut closes every
// connection it holds, on both sides, and accepting goes on.
type relay struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func startRelay(t *testing.T, addr string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", addr)
			if err != nil {
				in.Close()
				continue
			}
			r.mu.Lock()
			r.conns = append(r.conns, in, out)
			r.mu.Unlock()
			go func() { io.Copy(out, in); out.Close() }()
			go func() { io.Copy(in, out); in.Close() }()
		}
	}()
	t.Cleanup(func() { ln.Close(); r.cut() })
	return r
}

func (r *relay) cut() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
}

// TestStandbyRefollowsAfterLostConnection: the replication connection drops
// in the middle of a burst; the standby connects again by itself, reads on
// from its cursor and ends equal to the master.
func TestStandbyRefollowsAfterLostConnection(t *testing.T) {
	srv, master := startServer(t)
	mustExec(t, master, `CREATE TABLE qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`)
	standby := NewEngine()
	rep := NewReplica(standby)
	link := startRelay(t, srv.Addr())
	if err := rep.Follow(link.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	for i := 0; i < 20_000; i++ {
		if i == 10_000 {
			link.cut()
		}
		mustExec(t, master, `REPLACE INTO qos_rules VALUES (?, 1, 1, ?)`, Text(fmt.Sprintf("k%04d", i%5000)), Float(float64(i)))
	}
	waitApplied(t, rep, master, "qos_rules")
	sameRows(t, master, standby, "qos_rules")
	if err := rep.Err(); err != nil {
		t.Fatalf("replication error after re-following: %v", err)
	}
}

func TestReplicaPromote(t *testing.T) {
	srv, master := startServer(t)
	if _, err := master.Execute(`CREATE TABLE t (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	standby := NewEngine()
	standbySrv, err := NewServer(standby, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer standbySrv.Close()
	standbySrv.SetReadOnly(true)
	rep := NewReplica(standby)
	if err := rep.Follow(srv.Addr()); err != nil {
		t.Fatal(err)
	}
	// Master fails; promote the standby.
	srv.Close()
	rep.Promote()
	standbySrv.SetReadOnly(false)
	if standby.lineage.Load().fork == (Cursor{}) {
		t.Fatal("not promoted: the standby's lineage has no fork")
	}
	// Promotion must not record a spurious replication error.
	if err := rep.Err(); err != nil {
		t.Fatalf("unexpected replication error after promote: %v", err)
	}
	c, err := Dial(standbySrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatalf("write to promoted standby failed: %v", err)
	}
}

func TestReplicationConcurrentWritesConverge(t *testing.T) {
	srv, master := startServer(t)
	if _, err := master.Execute(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := master.Execute(`INSERT INTO t VALUES (?, 0)`, Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	standby := NewEngine()
	rep := NewReplica(standby)
	if err := rep.Follow(srv.Addr()); err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := master.Execute(`UPDATE t SET v = ? WHERE id = ?`, Int(int64(w*1000+i)), Int(int64(i%16))); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Wait for the stream to reach the master's head, then compare full
	// contents.
	waitApplied(t, rep, master, "t")
	sameRows(t, master, standby, "t")
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestClientClosedErrors(t *testing.T) {
	srv, _ := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Execute(`SELECT 1 FROM t`); err == nil {
		t.Fatal("closed client accepted Execute")
	}
	if _, err := c.Ping(); err == nil {
		t.Fatal("closed client accepted Ping")
	}
}

// TestManySequentialQueriesOneConn: the server decodes every frame of a
// connection into one argument list, so each row must still hold the values
// its own statement sent.
func TestManySequentialQueriesOneConn(t *testing.T) {
	srv, e := startServer(t)
	if _, err := e.Execute(`CREATE TABLE t (id INT PRIMARY KEY, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Every third name is NULL, after a TEXT in the same argument slot.
	name := func(i int) Value {
		if i%3 == 0 {
			return null()
		}
		return Text(fmt.Sprint("name-", i))
	}
	for i := 0; i < 500; i++ {
		if _, err := c.Execute(`REPLACE INTO t VALUES (?, ?)`, Int(int64(i%10)), name(i)); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	res, err := c.Execute(`SELECT COUNT(*) FROM t`)
	if err != nil || res.Rows[0][0] != Int(10) {
		t.Fatalf("count: %+v %v", res, err)
	}
	for id := 0; id < 10; id++ {
		res, err := c.Execute(`SELECT name FROM t WHERE id = ?`, Int(int64(id)))
		if want := name(490 + id); err != nil || len(res.Rows) != 1 || res.Rows[0][0] != want {
			t.Fatalf("id %d: %+v, %v; want %v", id, res, err, want)
		}
	}
}

// TestStoredTextOutlivesFrameBuffer: the server reads a query's TEXT
// arguments from its connection's frame buffer, which every later frame
// overwrites, so each key, and each TEXT value, that the engine stores must
// be a copy. Keys of one length sent through one connection land at the
// same place in that buffer; after many later frames, every stored key and
// name still reads back as sent, and the index still finds each key.
func TestStoredTextOutlivesFrameBuffer(t *testing.T) {
	srv, e := startServer(t)
	mustExec(t, e, `CREATE TABLE t (key TEXT PRIMARY KEY, name TEXT)`)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 300
	key := func(i int) string { return fmt.Sprintf("key-%05d", i) }
	name := func(i int) string { return fmt.Sprintf("name-%05d", i) }
	for i := 0; i < n; i++ {
		stmt := `REPLACE INTO t VALUES (?, ?)`
		args := []Value{Text(key(i)), Text("first")}
		if i%2 == 1 {
			stmt = `INSERT INTO t VALUES (?, ?)`
		}
		if _, err := c.Execute(stmt, args...); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Execute(`UPDATE t SET name = ? WHERE key = ?`, Text(name(i)), Text(key(i))); err != nil {
			t.Fatal(err)
		}
		// Lookups of absent keys overwrite the same bytes again.
		if _, err := c.Execute(`SELECT name FROM t WHERE key = ?`, Text("zzz-zzzzz")); err != nil {
			t.Fatal(err)
		}
	}
	res := mustExec(t, e, `SELECT key, name FROM t`)
	if len(res.Rows) != n {
		t.Fatalf("%d rows, want %d", len(res.Rows), n)
	}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		k := row[0].S
		var i int
		if _, err := fmt.Sscanf(k, "key-%05d", &i); err != nil || k != key(i) || seen[k] || row[1] != Text(name(i)) {
			t.Fatalf("stored row %v: not a key and name that were sent, or a second copy of one", row)
		}
		seen[k] = true
	}
	for i := 0; i < n; i++ {
		if res := mustExec(t, e, `SELECT name FROM t WHERE key = ?`, Text(key(i))); len(res.Rows) != 1 || res.Rows[0][0] != Text(name(i)) {
			t.Fatalf("key %q reads %+v, want its name", key(i), res.Rows)
		}
	}
}

// silentServer accepts connections and never answers, holding each open
// until the test ends.
func silentServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// TestSilentServerFailsCalls: a server that accepts the connection and never
// answers fails a statement and a replica's first cut within the round-trip
// deadline, instead of blocking them.
func TestSilentServerFailsCalls(t *testing.T) {
	addr := silentServer(t)
	for name, call := range map[string]func() error{
		"Pool.Execute": func() error {
			pool := NewPool(addr, 1)
			defer pool.Close()
			_, err := pool.Execute(`SELECT key FROM qos_rules WHERE key = ?`, Text("k"))
			return err
		},
		"Replica.Follow": func() error {
			rep := NewReplica(NewEngine())
			defer rep.Stop()
			return rep.Follow(addr)
		},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			errc := make(chan error, 1)
			go func() { errc <- call() }()
			select {
			case err := <-errc:
				if err == nil {
					t.Fatal("succeeded against a silent server")
				}
			case <-time.After(roundTripTimeout + time.Second):
				t.Fatalf("still blocked after %v", roundTripTimeout+time.Second)
			}
		})
	}
}
