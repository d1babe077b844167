# Table II of the paper, rows 1 and 3, timed with Tcl's own `time`.
# Run with the release shell:
#   cargo build --release && target/release/wish -f scripts/table2.tcl
# Each row prints "row N: <mean> microseconds per iteration", then the
# operation and the paper's DECstation 3100 figure. Row 2 (send an empty
# command) and the client/server split come from rtkbench: see
# EXPERIMENTS.md, "Table II".

set a 0
puts "row 1: [time {set a 1} 200000]  (set a 1; paper 68 us)"

# The commands of tk_bench::create_display_delete_buttons, which the
# budget gate pins as `buttons_50`.
proc buttons {} {
    for {set i 0} {$i < 50} {incr i} {
        button .b$i -text "Button $i" -command {}
        pack append . .b$i {top fillx}
    }
    update
    for {set i 0} {$i < 50} {incr i} {
        destroy .b$i
    }
    update
}
buttons
puts "row 3: [time buttons 20]  (create, display, delete 50 buttons; paper 440 ms)"
