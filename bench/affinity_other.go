//go:build !linux

package main

import "os/exec"

// Without sched_setaffinity the children run wherever the scheduler puts
// them; the numbers are noisier, not wrong.
func allowedCPUs() []int { return nil }

func startOn(cmd *exec.Cmd, _ int) error { return cmd.Start() }
