package policy

import (
	"testing"

	"repro/internal/task"
)

func TestFPLess(t *testing.T) {
	tk := task.New(0, 10, 10, 2, 1, 2)
	tk2 := task.New(1, 10, 10, 2, 1, 2)
	a := task.NewJob(tk, 1, task.Mandatory)
	b := task.NewJob(tk2, 1, task.Mandatory)
	if !FPLess(a, b) || FPLess(b, a) {
		t.Error("task priority ordering wrong")
	}
	c := task.NewJob(tk, 2, task.Mandatory)
	if !FPLess(a, c) {
		t.Error("index ordering wrong")
	}
	bk := task.NewBackup(tk, 1, 0)
	if !FPLess(a, bk) || FPLess(bk, a) {
		t.Error("main-before-backup tiebreak wrong")
	}
}
