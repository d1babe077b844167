# Loop and proc-call costs, timed with Tcl's own `time`: the probe
# behind ROADMAP items 8 and 10. The same file runs in tclsh 8.6, so the
# two can be compared on one host:
#   cargo build --release && target/release/wish -f scripts/loops.tcl
#   tclsh8.6 scripts/loops.tcl
# Each line prints the best of three `time` runs, in microseconds per
# call.

proc cnt {n} {for {set i 0} {$i < $n} {incr i} {}}
proc loopset10 {n} {
    for {set i 0} {$i < $n} {incr i} {
        set a $i; set a $i; set a $i; set a $i; set a $i
        set a $i; set a $i; set a $i; set a $i; set a $i
    }
}
proc nop {} {}
proc loopone {n} {for {set i 0} {$i < $n} {incr i} {nop}}
proc fib {n} {
    if {$n < 2} {return $n}
    expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}
}

proc best {script count} {
    set best {}
    for {set run 0} {$run < 3} {incr run} {
        set us [lindex [time $script $count] 0]
        if {$best == {} || $us < $best} {set best $us}
    }
    puts "[format %-16s $script] $best"
}

best {cnt 1000} 200
best {loopset10 10000} 5
best {loopone 10000} 10
best {fib 20} 5
