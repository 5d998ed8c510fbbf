module hetmpc/perf

go 1.22

require hetmpc v0.0.0

replace hetmpc => ../
