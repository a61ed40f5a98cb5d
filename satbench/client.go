package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/store"
)

// compilerEntries is the memory LRU capacity of the benchmark's server.
// It holds the warm workloads' instances, and is small enough that a
// cold-mix item is evicted coldWarmup items later: every client inserts at
// least five entries per two items, so the evicted leg must reach the disk
// tier.
const compilerEntries = 4

// serverConfigNote describes the server configuration for the report.
const serverConfigNote = "server.New defaults (4 workers, queue 64, 512 MiB session budget, " +
	"device tensor.Parallel) + memory LRU of 4 entries + a fresh store directory per set-up"

// liveServer is one in-process satserved on a loopback listener over its
// own store directory.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	dir  string
	done chan struct{}
}

func startServer(dir string) (*liveServer, error) {
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Compiler: sampling.NewCompiler(compilerEntries),
		Store:    st,
		Log:      slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{
		srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), dir: dir, done: make(chan struct{}),
	}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln)
	}()
	return ls, nil
}

// stop shuts the server down, waits for its serve loop, and removes its
// store directory.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.srv.StartDrain()
	ls.hs.Shutdown(ctx)
	ls.srv.Close()
	<-ls.done
	os.RemoveAll(ls.dir)
}

// metaLine and doneLine decode the fields of the server's stream lines
// the benchmark reads.
type metaLine struct {
	Key     string  `json:"key"`
	Batch   int     `json:"batch"`
	Target  int     `json:"target"`
	QueueMS float64 `json:"queue_ms"`
}

type doneLine struct {
	Delivered int  `json:"delivered"`
	Exhausted bool `json:"exhausted"`
}

// result is what one request delivered, with client-side timestamps
// relative to the request's send time.
type result struct {
	Req    request
	ID     int
	Status int
	Err    string
	Meta   metaLine
	Done   *doneLine
	// Send is the send time; MetaAt/FirstAt/DoneAt are offsets from it
	// (FirstAt is 0 when no solution arrived).
	Send                    time.Time
	MetaAt, FirstAt, DoneAt time.Duration
	// Sols holds the delivered assignments bit-packed, Words words each.
	Sols     []uint64
	Words    int
	NumSols  int
	NumVars  int
	SolBytes int64 // NDJSON bytes of the solution lines
	// Bad lists output-check violations found after the run.
	Bad []string
}

// ok reports whether the request counts as served: a 200 stream that
// ended with a done line and passed the output check.
func (r *result) ok() bool { return r.Err == "" && len(r.Bad) == 0 }

// solution returns the i-th delivered assignment, packed.
func (r *result) solution(i int) []uint64 { return r.Sols[i*r.Words : (i+1)*r.Words] }

var (
	solPrefix = []byte(`{"type":"solution","assignment":"`)
	solSuffix = []byte("\"}\n")
)

// client sends requests to one server. Its transport keeps one idle
// connection per caller so every request reuses a warm connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, callers int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: callers, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads its NDJSON stream to the end.
func (c *client) do(ctx context.Context, id int, rq request) *result {
	res := &result{Req: rq, ID: id}
	var body io.Reader
	if rq.Leg == legPost {
		body = bytes.NewReader(rq.Inst.Body)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sample?"+rq.query(), body)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Send = time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer resp.Body.Close()
	res.Status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		res.Err = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		return res
	}
	if err := readStream(resp.Body, res); err != nil {
		res.Err = err.Error()
	}
	return res
}

// readStream consumes a sample stream into res. Solution lines take a
// fast path that packs the assignment without a JSON decode; any other
// line shape is decoded generically.
func readStream(r io.Reader, res *result) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var long []byte
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			long = append(long, line...)
			continue
		}
		if long != nil {
			line = append(long, line...)
			long = nil
		}
		if len(line) > 0 {
			if perr := res.line(line); perr != nil {
				return perr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if res.Done == nil {
		return errors.New("stream ended without a done line")
	}
	return nil
}

// line handles one NDJSON line.
func (res *result) line(line []byte) error {
	at := time.Since(res.Send)
	if bytes.HasPrefix(line, solPrefix) && bytes.HasSuffix(line, solSuffix) {
		res.addSolution(line[len(solPrefix):len(line)-len(solSuffix)], int64(len(line)), at)
		return nil
	}
	var v struct {
		Type       string `json:"type"`
		Assignment string `json:"assignment"`
		metaLine
		doneLine
	}
	if err := json.Unmarshal(line, &v); err != nil {
		return fmt.Errorf("bad stream line: %v", err)
	}
	switch v.Type {
	case "meta":
		res.Meta, res.MetaAt = v.metaLine, at
	case "solution":
		res.addSolution([]byte(v.Assignment), int64(len(line)), at)
	case "done":
		d := v.doneLine
		res.Done, res.DoneAt = &d, at
	default:
		return fmt.Errorf("unknown stream line type %q", v.Type)
	}
	return nil
}

func (res *result) addSolution(bits []byte, n int64, at time.Duration) {
	if res.NumSols == 0 {
		res.FirstAt = at
		res.NumVars = len(bits)
		res.Words = (len(bits) + 63) / 64
	}
	res.NumSols++
	res.SolBytes += n
	off := len(res.Sols)
	res.Sols = append(res.Sols, make([]uint64, res.Words)...)
	w := res.Sols[off:]
	for i, b := range bits {
		if i >= res.NumVars {
			break
		}
		if b == '1' {
			w[i>>6] |= 1 << (i & 63)
		}
	}
	if len(bits) != res.NumVars {
		res.Bad = append(res.Bad, fmt.Sprintf("solution of %d variables after one of %d", len(bits), res.NumVars))
	}
}

// runItems runs the closed loop: each of the workload's clients sends its
// items' legs one after another, starting at the first timed item, until
// it has sent limit[c] items or, with a non-zero deadline, the deadline
// passes before its next item. Items are never cut short, so every item's
// legs all run. A non-nil tracer records each finished request's spans.
func runItems(ctx context.Context, cl *client, w *workload, deadline time.Time, limit []int, tr *tracer) []*result {
	var mu sync.Mutex
	var out []*result
	var ids atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*result
			for j := w.firstItem(); j < limit[c] && j < w.numItems(c); j++ {
				if !deadline.IsZero() && time.Now().After(deadline) {
					break
				}
				for _, rq := range w.item(c, j) {
					r := cl.do(ctx, int(ids.Add(1)), rq)
					if tr != nil {
						tr.recordHTTP(r)
					}
					mine = append(mine, r)
				}
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// itemsDone returns, per client, one past the last item index results
// hold — the limit that replays exactly the same items.
func itemsDone(w *workload, res []*result) []int {
	lim := make([]int, w.Clients)
	for c := range lim {
		lim[c] = w.firstItem()
	}
	for _, r := range res {
		lim[r.Req.Client] = max(lim[r.Req.Client], r.Req.Item+1)
	}
	return lim
}

// scrape reads the server's /metrics counters.
func (c *client) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// scratchDir returns a fresh directory under the benchmark's work dir.
func scratchDir(workdir, name string) (string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workdir, name+"-")
}
