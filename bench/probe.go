package main

// The host probe. The benchmark's host is a small shared virtual machine
// whose neighbours contend for its caches and memory: code that allocates
// and chases pointers — all of this product — runs 20-35 % slower for
// minutes at a time, CPU time included, while a register-only loop does
// not move (README.md, "The host probe"). No estimator inside a run sees
// past that, so every run measures the host beside the workload: after
// each pass it times one fixed piece of work of the same character, and
// the timing metrics are divided by how much slower than probeRef that
// work ran. It runs in a child process — this binary, started with
// -probe — so that its heap, its collector and its resident set are its
// own: the workload's memory does not change the probe's speed, and the
// probe's does not show in the workload's metrics. The work must stay
// exactly as it is: a change to it moves every timing metric of every
// workload.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// probeRef is the probe's quiet time on the host the benchmark was
// calibrated on, when that host is calm: there the slowdown is 1 and the
// reported times are the measured ones.
const probeRef = 10800 * time.Microsecond

// probesPerPass is how many samples follow every pass. The probe's own
// sampling noise is a good part of what is left of a run's spread: a
// sample varies by a fifth from one to the next, and the fastest quarter
// of 70 of them by 3 %, of 140 by 2 %.
const probesPerPass = 2

// probeWarmup is how many samples a new prober discards: its heap has
// reached its steady size by then.
const probeWarmup = 5

type probeNode struct {
	key  int64
	text string
	next *probeNode
	pad  [11]int64 // a node the size of a value.Value
}

var probeSink int64

// probeWork runs the fixed work once and returns how long it took: short
// lists built and walked (allocation, pointer chasing), a map filled and
// read (hashing, random access) and rows rendered into a growing buffer
// (small allocations, copying).
func probeWork() time.Duration {
	t0 := time.Now()
	var sum int64

	for round := 0; round < 16; round++ {
		var heads [64]*probeNode
		for i := 0; i < 2048; i++ {
			heads[i&63] = &probeNode{key: int64(i), text: "x", next: heads[i&63]}
		}
		for _, h := range heads {
			for n := h; n != nil; n = n.next {
				sum += n.key
			}
		}
	}

	x := uint64(88172645463325252)
	for round := 0; round < 4; round++ {
		m := make(map[uint64]int32, 64)
		for i := 0; i < 16000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			m[x%12500]++
		}
		for k := uint64(0); k < 5000; k++ {
			sum += int64(m[k])
		}
	}

	var sb strings.Builder
	for i := 0; i < 30000; i++ {
		sb.WriteString(strconv.Itoa(i * 7919))
		sb.WriteString(" | ")
		fmt.Fprintf(&sb, "film-%d\n", i)
	}
	sum += int64(sb.Len())

	probeSink += sum
	return time.Since(t0)
}

// probeMain is the child process: for every line on its standard input
// it runs the work once and answers with its duration in nanoseconds. It
// ends when the input does.
func probeMain() error {
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadString('\n'); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if _, err := fmt.Println(int64(probeWork())); err != nil {
			return err
		}
	}
}

// prober is the parent's handle on the child.
type prober struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startProber() (*prober, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-probe")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	p := &prober{cmd: cmd, in: in, out: bufio.NewReader(out)}
	for i := 0; i < probeWarmup; i++ {
		if _, err := p.sample(); err != nil {
			p.stop()
			return nil, err
		}
	}
	return p, nil
}

// sample has the child run the work once, while this process waits.
func (p *prober) sample() (time.Duration, error) {
	if _, err := io.WriteString(p.in, "\n"); err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	return time.Duration(ns), nil
}

// stop ends the child and waits for it.
func (p *prober) stop() error {
	p.in.Close()
	return p.cmd.Wait()
}

// hostSlowdown is how much slower than probeRef the host ran the probe
// over a window: the mean of the fastest quarter of its samples — the
// rule the passes themselves are held to — over probeRef.
func hostSlowdown(samples []time.Duration) float64 {
	quiet := quietSet(samples, 0)
	if len(quiet) == 0 {
		return 1
	}
	var sum time.Duration
	for _, i := range quiet {
		sum += samples[i]
	}
	return float64(sum) / float64(len(quiet)) / float64(probeRef)
}
