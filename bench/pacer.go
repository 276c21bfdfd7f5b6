package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The pacer is the open loop's clock. Go's timers are only good to a
// millisecond once the process idles (the runtime then sleeps in epoll_wait,
// which counts in milliseconds), a busy-wait would take one of the two cores
// from the site, and a goroutine that sleeps in nanosleep(2) holds one of the
// site's two scheduler slots hostage while it does. So the clock is a child
// process: this binary again, told by pacerEnv to do nothing but sleep on
// one thread and write a byte to its standard output at each due time. The
// parent learns of an arrival the way a server learns of a real one, from
// its network poller. The byte says how late the child woke, in units of
// tickUnit, so the generator's own lateness is measured where it arises.
const (
	pacerEnv = "BENCH_PACER"
	tickUnit = 8 * time.Microsecond
)

// tick is one released operation and how late the clock released it.
type tick struct {
	i    int
	late time.Duration
}

// pacerMain is the child. Standard input carries little-endian int64s: the
// start as Unix nanoseconds, then every due time as nanoseconds after it.
func pacerMain() {
	runtime.LockOSThread()
	// Best effort, all three: no timer slack (the default is 50 µs), and a
	// scheduling class or priority that lets the wake-up preempt a busy
	// core instead of waiting out its time slice.
	const prSetTimerslack, schedFIFO = 29, 1
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	prio := struct{ priority int32 }{1}
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		syscall.Setpriority(syscall.PRIO_PROCESS, 0, -20)
	}
	in := bufio.NewReader(os.Stdin)
	var startNS int64
	if err := binary.Read(in, binary.LittleEndian, &startNS); err != nil {
		fatal(fmt.Errorf("pacer: %w", err))
	}
	var dues []int64
	for {
		var d int64
		if err := binary.Read(in, binary.LittleEndian, &d); err != nil {
			break
		}
		dues = append(dues, d)
	}
	start := time.Unix(0, startNS)
	for _, d := range dues {
		due := start.Add(time.Duration(d))
		if wait := time.Until(due); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil)
		}
		late := time.Since(due) / tickUnit
		if late > 255 {
			late = 255
		}
		if _, err := os.Stdout.Write([]byte{byte(late)}); err != nil {
			return // the parent went away
		}
	}
}

// pace starts the child for ops, due from start on, and sends the index of
// each op on release when the child says it is due. It closes release and
// returns when all are released or the child fails.
func pace(start time.Time, ops []readOp, release chan<- tick) error {
	defer close(release)
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), pacerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	w := bufio.NewWriter(stdin)
	binary.Write(w, binary.LittleEndian, start.UnixNano())
	for _, op := range ops {
		binary.Write(w, binary.LittleEndian, int64(op.due))
	}
	if err := w.Flush(); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("pacer: %w", err)
	}
	stdin.Close()
	next, buf := 0, make([]byte, 256)
	for next < len(ops) {
		n, err := stdout.Read(buf)
		for i := 0; i < n && next < len(ops); i++ {
			release <- tick{next, time.Duration(buf[i]) * tickUnit}
			next++
		}
		if err != nil {
			break
		}
	}
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("pacer: %w", err)
	}
	if next < len(ops) {
		return fmt.Errorf("pacer: released %d of %d requests", next, len(ops))
	}
	return nil
}
