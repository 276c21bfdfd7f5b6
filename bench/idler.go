package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The idlers keep the box's processors from going to sleep. The box is a
// virtual machine on a shared host: a processor with nothing to run halts,
// and waking it costs a trip through the hypervisor whose length depends on
// what the host's other guests are doing. An open loop at a quarter of the
// site's capacity finds a halted processor at most arrivals, so that trip was
// four tenths of a hit's latency and three tenths of its CPU time, and the
// noisiest part of both (README.md, "The load generator", has the paired
// runs). An idler is this binary again,
// told by idlerEnv to spin on one processor in the scheduling class
// SCHED_IDLE, which runs only when nothing else on that processor wants to
// and is preempted at once by anything that does. They take no time from the
// site or the harness, and cpu_ms_per_page does not count them (it is the
// parent's own getrusage).
const idlerEnv = "BENCH_IDLER"

// idlerMain is the child: it spins on the processor idlerEnv names until its
// parent stops it or goes away.
func idlerMain() {
	runtime.LockOSThread()
	const schedIdle = 5
	prio := struct{ priority int32 }{0}
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		// In any other class the spin would take a processor from the site.
		os.Exit(1)
	}
	if cpu, err := strconv.Atoi(os.Getenv(idlerEnv)); err == nil && cpu >= 0 {
		var mask [1024 / 64]uint64
		mask[cpu/64] = 1 << (cpu % 64)
		syscall.Syscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	}
	parent := os.Getppid()
	for os.Getppid() == parent {
		for until := time.Now().Add(10 * time.Millisecond); time.Now().Before(until); {
		}
	}
}

// allowedCPUs lists the processors this process may run on.
func allowedCPUs() []int {
	var mask [1024 / 64]uint64
	n, _, errno := syscall.Syscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// startIdlers starts one idler per processor and returns what stops them and
// waits for them. Where they cannot be started (another system, a sandbox
// that forbids the scheduling class) the benchmark runs without: its numbers
// are then as noisy as the box.
func startIdlers() (stop func()) {
	exe, err := os.Executable()
	if err != nil {
		return func() {}
	}
	var cmds []*exec.Cmd
	for _, cpu := range allowedCPUs() {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), idlerEnv+"="+strconv.Itoa(cpu))
		if cmd.Start() == nil {
			cmds = append(cmds, cmd)
		}
	}
	return func() {
		for _, cmd := range cmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
		cmds = nil
	}
}
