package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// resetPeakRSS returns freed heap to the OS and resets the VmHWM of
// process pid ("self" for this one), so a later peakRSSMiB reads the peak
// reached after this call rather than during set-up.
func resetPeakRSS(pid string) error {
	if pid == "self" {
		runtime.GC()
		debug.FreeOSMemory()
	}
	// Writing 5 to clear_refs resets the peak resident set size.
	if err := os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads VmHWM of process pid from /proc.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb * 1024 / mib, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// allocMiB reports the bytes allocated on the heap so far, in MiB; the
// difference of two readings is what the code between them allocated.
func allocMiB() float64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.TotalAlloc) / mib
}
