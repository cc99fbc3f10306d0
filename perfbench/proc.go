package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childStat is the part of a childReport the benchmark reads. Fields are
// decoded by name, so older or newer trees that add or drop status
// fields still parse.
type childStat struct {
	CPUNs  int64 `json:"cpu_ns"`
	Status struct {
		Placement         string  `json:"placement"`
		Shifts            int     `json:"shifts"`
		ShiftRetries      int     `json:"shift_retries"`
		ShiftRollbacks    int     `json:"shift_rollbacks"`
		Shifting          bool    `json:"shifting"`
		LastShiftDuration string  `json:"last_shift_duration"`
		ModeledWatts      float64 `json:"modeled_watts"`
	} `json:"status"`
	DP struct {
		Received        uint64            `json:"received"`
		Handled         uint64            `json:"handled"`
		Offloaded       uint64            `json:"offloaded"`
		Replies         uint64            `json:"replies"`
		Dropped         uint64            `json:"dropped"`
		WriteErrors     uint64            `json:"write_errors"`
		ReadBatches     uint64            `json:"read_batches"`
		WriteBatches    uint64            `json:"write_batches"`
		UringEnters     uint64            `json:"uring_enters"`
		BuffersInFlight int64             `json:"buffers_in_flight"`
		Handler         map[string]uint64 `json:"handler"`
		Tier            map[string]uint64 `json:"tier"`
		TierPowerWatts  float64           `json:"tier_power_watts"`
		Shards          []struct {
			ReadBatches uint64 `json:"read_batches"`
		} `json:"shards"`
	} `json:"dp"`
	Store *struct {
		Evictions uint64 `json:"evictions"`
	} `json:"store"`
	Spans        int `json:"spans"`
	SpansDropped int `json:"spans_dropped"`
}

// childProc is a running server child.
type childProc struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	mu    sync.Mutex
	addr  string
	setup time.Duration
}

// spawnChild starts the server for w, streams it the dataset and waits
// until it serves; setup is the time from spawn to ready.
func spawnChild(w workload, dataset []byte, traced bool, spansPath string) (*childProc, error) {
	args := []string{"child", "-workload", w.name, "-sockets", strconv.Itoa(nproc)}
	if traced {
		args = append(args, "-trace", "-spans", spansPath)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &childProc{cmd: cmd, in: in, out: bufio.NewReaderSize(outPipe, 1<<16)}
	if _, err := in.Write(dataset); err != nil {
		c.kill()
		return nil, fmt.Errorf("send dataset: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ready ") {
		c.kill()
		return nil, fmt.Errorf("child did not come up (%q): %v", line, err)
	}
	c.setup = time.Since(start)
	c.addr = strings.TrimSpace(strings.TrimPrefix(line, "ready "))
	return c, nil
}

// stat asks the child for a snapshot of itself.
func (c *childProc) stat() (childStat, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var st childStat
	if _, err := io.WriteString(c.in, "stat\n"); err != nil {
		return st, fmt.Errorf("child stat: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return st, fmt.Errorf("child stat: %w", err)
	}
	return st, json.Unmarshal([]byte(line), &st)
}

// placement asks the child for its orchestrator status alone.
func (c *childProc) placement() (childStat, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var st childStat
	if _, err := io.WriteString(c.in, "place\n"); err != nil {
		return st, fmt.Errorf("child placement: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return st, fmt.Errorf("child placement: %w", err)
	}
	return st, json.Unmarshal([]byte(line), &st)
}

// collect has the child collect its garbage and return the freed memory
// to the kernel.
func (c *childProc) collect() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := io.WriteString(c.in, "gc\n"); err != nil {
		return fmt.Errorf("child gc: %w", err)
	}
	if _, err := c.out.ReadString('\n'); err != nil {
		return fmt.Errorf("child gc: %w", err)
	}
	return nil
}

// liveRSS has the child collect its garbage and return the freed memory
// to the kernel, then reads its resident set (VmRSS) in KiB: the memory
// the serving state holds, independent of where the GC cycle happened to
// be.
func (c *childProc) liveRSS() (int64, error) {
	if err := c.collect(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmRSS for the child")
}

// stop sends SIGTERM, reads the child's final report after it drained,
// and reaps it.
func (c *childProc) stop() (final childStat, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return final, err
	}
	timer := time.AfterFunc(30*time.Second, func() { _ = c.cmd.Process.Kill() })
	defer timer.Stop()
	var line string
	for {
		l, rerr := c.out.ReadString('\n')
		if strings.HasPrefix(l, "final ") {
			line = strings.TrimPrefix(l, "final ")
		}
		if rerr != nil {
			break
		}
	}
	_ = c.in.Close()
	if err := c.cmd.Wait(); err != nil {
		return final, fmt.Errorf("child exit: %w", err)
	}
	if line == "" {
		return final, errors.New("child exited without a final report")
	}
	return final, json.Unmarshal([]byte(line), &final)
}

// kill ends a child that failed to start and reaps it.
func (c *childProc) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.in.Close()
	_ = c.cmd.Wait()
}
