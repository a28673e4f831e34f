"""Unit tests for the bundled Verilog subset simulator (repro.vsim)."""

import pytest

from repro.vsim import (
    Simulation,
    VsimElabError,
    VsimParseError,
    VsimRuntimeError,
    elaborate,
    lint_verilog,
    parse_verilog,
)


def sim_of(source: str, **kwargs) -> Simulation:
    return Simulation(elaborate(source, **kwargs))


class TestParser:
    def test_module_ports_and_nets(self):
        mods = parse_verilog("""
            module m (
                input  wire        clk,
                input  wire [31:0] a,
                output reg  [63:0] r
            );
                wire [7:0] t;
                assign t = a[7:0];
            endmodule
        """)
        assert len(mods) == 1
        assert [p.name for p in mods[0].ports] == ["clk", "a", "r"]
        assert mods[0].nets[0].name == "t"

    def test_rejects_memory_arrays(self):
        with pytest.raises(VsimParseError, match="memory arrays"):
            parse_verilog("module m (); reg [7:0] mem [0:3]; endmodule")

    def test_rejects_blocking_assign_in_always(self):
        with pytest.raises(VsimParseError):
            parse_verilog("""
                module m (input wire clk);
                    reg [3:0] x;
                    always @(posedge clk) begin x = 4'd1; end
                endmodule
            """)

    def test_nonblocking_vs_lteq_comparison(self):
        # The first "<=" is the assignment; later ones are comparisons.
        mods = parse_verilog("""
            module m (input wire clk, input wire [7:0] a, input wire [7:0] b);
                reg flag;
                always @(posedge clk) begin
                    flag <= a <= b;
                end
            endmodule
        """)
        assert mods[0].always[0].body[0].target == "flag"

    def test_comments_and_directives_skipped(self):
        mods = parse_verilog("""
            `timescale 1ns/1ps
            // line comment
            module m (); /* block
            comment */ wire w; assign w = 1'b0;
            endmodule
        """)
        assert mods[0].name == "m"


class TestExpressions:
    def _eval(self, decl: str, expr: str, width: int = 64) -> int:
        sim = sim_of(f"""
            module m ({decl} output wire [{width - 1}:0] r);
                assign r = {expr};
            endmodule
        """)
        return sim.peek("r")

    def test_unsigned_arith(self):
        assert self._eval("", "32'd7 + 32'd3") == 10
        assert self._eval("", "32'd3 - 32'd7") == 0xFFFFFFFC
        assert self._eval("", "32'd6 * 32'd7") == 42

    def test_signed_compare_needs_cast(self):
        # Unsigned compare: -1 is the max value.
        assert self._eval("", "32'hFFFFFFFF < 32'd1", width=1) == 0
        assert (
            self._eval("", "$signed(32'hFFFFFFFF) < $signed(32'd1)", width=1)
            == 1
        )

    def test_signed_division_truncates_toward_zero(self):
        # -7 / 2 == -3 in C; the emitter relies on matching semantics.
        val = self._eval(
            "", "$signed(32'hFFFFFFF9) / $signed(32'd2)", width=32
        )
        assert val == 0xFFFFFFFD  # -3
        rem = self._eval(
            "", "$signed(32'hFFFFFFF9) % $signed(32'd2)", width=32
        )
        assert rem == 0xFFFFFFFF  # -1

    def test_division_by_zero_raises(self):
        with pytest.raises(VsimRuntimeError):
            sim_of("""
                module m (input wire [31:0] a, output wire [31:0] r);
                    assign r = 32'd1 / a;
                endmodule
            """)

    def test_arithmetic_shift_needs_signed_left(self):
        assert self._eval("", "32'h80000000 >> 4", width=32) == 0x08000000
        assert (
            self._eval("", "$signed(32'h80000000) >>> 4", width=32)
            == 0xF8000000
        )

    def test_shift_past_width_is_zero(self):
        assert self._eval("", "32'd1 << 32'd40", width=32) == 0

    def test_concat_select_replicate(self):
        assert self._eval("", "{4'hA, 4'h5}", width=8) == 0xA5
        assert self._eval("", "8'hA5[7:4]", width=4) == 0xA
        assert self._eval("", "{4{2'b10}}", width=8) == 0b10101010
        assert self._eval("", "8'hA5[0]", width=1) == 1

    def test_ternary_and_logic(self):
        assert self._eval("", "1'b1 ? 8'd3 : 8'd9", width=8) == 3
        assert self._eval("", "8'd0 || 8'd2", width=1) == 1
        assert self._eval("", "!8'd2", width=1) == 0

    def test_fp_cores_round_trip(self):
        import struct

        two = int.from_bytes(struct.pack("<d", 2.0), "little")
        half = int.from_bytes(struct.pack("<d", 0.5), "little")
        bits = self._eval("", f"fp_mul_64(64'd{two}, 64'd{half})")
        assert struct.unpack("<d", bits.to_bytes(8, "little"))[0] == 1.0

    def test_untaken_operands_are_not_evaluated(self):
        # a is 0: each division by it sits where it is never read.
        decl = "input wire [31:0] a,"
        assert self._eval(decl, "1'b0 && (32'd1 / a) == 32'd0", width=1) == 0
        assert self._eval(decl, "1'b1 || (32'd1 / a) == 32'd0", width=1) == 1
        assert self._eval(decl, "1'b1 ? 32'd3 : 32'd1 / a", width=32) == 3
        assert self._eval(decl, "(32'd1 / a) << 32'd40", width=32) == 0

    def test_signed_operand_narrower_than_its_partner(self):
        # 8'hF0 is -16.  Each operand widens by its own signedness; the
        # result (and so the compare) is signed only when both are.
        assert self._eval("", "$signed(8'hF0) < $signed(32'd1)", width=1) == 1
        assert self._eval("", "$signed(8'hF0) < 32'd1", width=1) == 0
        assert self._eval("", "$signed(8'hF0) + 32'd1", width=32) == 0xFFFFFFF1
        assert self._eval("", "{3{$signed(2'b10)}}", width=6) == 0b101010

    def test_width_extension_zero_fills(self):
        # Unsigned operand widened against a wider one.
        assert self._eval("", "64'd0 + 8'hFF") == 0xFF


class TestSimulation:
    COUNTER = """
        module counter (
            input  wire clk,
            input  wire rst,
            output reg [7:0] n
        );
            always @(posedge clk) begin
                if (rst) begin
                    n <= 8'd0;
                end else begin
                    n <= n + 8'd1;
                end
            end
        endmodule
    """

    def test_counter_counts(self):
        sim = sim_of(self.COUNTER)
        sim.poke("rst", 1)
        sim.step()
        sim.poke("rst", 0)
        sim.step(5)
        assert sim.peek("n") == 5

    def test_nonblocking_swap(self):
        sim = sim_of("""
            module swap (input wire clk, output reg [3:0] a, output reg [3:0] b);
                always @(posedge clk) begin
                    a <= b;
                    b <= a;
                end
            endmodule
        """)
        sim.poke("a", 3)
        sim.poke("b", 9)
        sim.step()
        assert (sim.peek("a"), sim.peek("b")) == (9, 3)

    def test_last_nonblocking_write_wins(self):
        sim = sim_of("""
            module m (input wire clk, output reg [3:0] x);
                always @(posedge clk) begin
                    x <= 4'd1;
                    x <= 4'd2;
                end
            endmodule
        """)
        sim.step()
        assert sim.peek("x") == 2

    def test_case_fsm(self):
        sim = sim_of("""
            module fsm (input wire clk, input wire rst, output reg [1:0] state);
                localparam STATE_IDLE = 2'd0;
                localparam S_A_0 = 2'd1;
                always @(posedge clk) begin
                    if (rst) begin
                        state <= STATE_IDLE;
                    end else begin
                        case (state)
                            STATE_IDLE: begin state <= S_A_0; end
                            S_A_0: begin state <= STATE_IDLE; end
                            default: begin state <= STATE_IDLE; end
                        endcase
                    end
                end
            endmodule
        """)
        sim.poke("rst", 1)
        sim.step()
        sim.poke("rst", 0)
        sim.step()
        assert sim.peek("state") == 1
        sim.step()
        assert sim.peek("state") == 0

    def test_poke_masks_to_width(self):
        sim = sim_of("module m (input wire [3:0] a, output wire [3:0] r);"
                     " assign r = a; endmodule")
        sim.poke("a", 0x1F)
        assert sim.peek("r") == 0xF

    def test_nested_case_and_a_label_listed_twice(self):
        sim = sim_of("""
            module m (input wire clk, input wire [1:0] a, input wire [1:0] b,
                      output reg [3:0] x);
                always @(posedge clk) begin
                    case (a)
                        2'd0: begin
                            case (b)
                                2'd1: begin x <= 4'd1; end
                                default: begin x <= 4'd2; end
                            endcase
                        end
                        2'd1: begin x <= 4'd3; end
                        2'd1: begin x <= 4'd4; end
                    endcase
                end
            endmodule
        """)
        seen = []
        for a, b in [(0, 1), (0, 3), (1, 0), (2, 0)]:
            sim.poke("a", a)
            sim.poke("b", b)
            sim.step()
            seen.append(sim.peek("x"))
        # No default at the top: a == 2 keeps x; the later 2'd1 item wins.
        assert seen == [1, 2, 4, 4]


class TestPokePeekContract:
    """A poke settles what it reaches before the next peek or edge."""

    CHAIN = """
        module m (input wire clk, input wire [7:0] a, input wire [7:0] k,
                  output wire [7:0] b, output wire [7:0] c,
                  output wire [7:0] d, output reg [7:0] q);
            assign b = a + 8'd1;
            assign c = b * 8'd2;
            assign d = k + q;
            always @(posedge clk) begin
                q <= c;
            end
        endmodule
    """

    def test_peek_after_poke_sees_the_settled_fan_out(self):
        sim = sim_of(self.CHAIN)
        assert (sim.peek("b"), sim.peek("c"), sim.peek("d")) == (1, 2, 0)
        sim.poke("a", 3)
        assert (sim.peek("b"), sim.peek("c")) == (4, 8)
        sim.poke("k", 5)
        assert sim.peek("d") == 5
        sim.step()
        assert (sim.peek("q"), sim.peek("d")) == (8, 13)  # the edge settles too

    def test_poking_an_unchanged_value_is_a_no_op(self, monkeypatch):
        sim = sim_of(self.CHAIN)
        sim.poke("a", 3)
        before = list(sim.state)
        settled = []
        monkeypatch.setattr(
            sim.design, "cone", lambda slot: settled.append(slot)
        )
        sim.poke("a", 3)
        sim.poke("a", 0x103)  # masks to the value it holds
        assert settled == [] and sim.state == before

    def test_a_poked_driven_net_keeps_its_drivers_value(self):
        sim = sim_of(self.CHAIN)
        sim.poke("a", 3)
        sim.poke("b", 99)
        assert (sim.peek("b"), sim.peek("c")) == (4, 8)
        sim.step()
        assert sim.peek("q") == 8

    def test_unknown_signals_and_division_by_zero_raise_runtime_errors(self):
        sim = sim_of(self.CHAIN)
        with pytest.raises(VsimRuntimeError, match="^poke of unknown signal 'ghost'$"):
            sim.poke("ghost", 1)
        with pytest.raises(VsimRuntimeError, match="^peek of unknown signal 'ghost'$"):
            sim.peek("ghost")
        guarded = sim_of("""
            module m (input wire go, input wire [31:0] b, output wire [31:0] r);
                assign r = go ? $signed(32'd8) / $signed(b) : 32'd0;
            endmodule
        """)
        with pytest.raises(VsimRuntimeError, match="^division by zero$"):
            guarded.poke("go", 1)
        with pytest.raises(VsimRuntimeError, match="^division by zero$"):
            sim_of("""
                module m (input wire [31:0] a, output wire [31:0] r);
                    assign r = 32'd1 % a;
                endmodule
            """)


class TestElaboration:
    def test_comb_loop_detected(self):
        with pytest.raises(VsimElabError, match="combinational loop"):
            elaborate("""
                module m ();
                    wire a;
                    wire b;
                    assign a = b;
                    assign b = a;
                endmodule
            """)

    def test_multiply_driven_rejected(self):
        with pytest.raises(VsimElabError):
            elaborate("""
                module m (input wire x);
                    wire a;
                    assign a = x;
                    assign a = !x;
                endmodule
            """)

    def test_parameter_override(self):
        sim = sim_of(
            "module m (output wire [31:0] r); parameter BASE = 32'd0;"
            " assign r = BASE + 32'd2; endmodule",
            params={"BASE": 0x1000},
        )
        assert sim.peek("r") == 0x1002

    def test_unknown_identifier_reported_with_line(self):
        with pytest.raises(VsimElabError, match="undeclared"):
            elaborate("module m (output wire r); assign r = ghost; endmodule")

    def test_hierarchy_flattening(self):
        sim = sim_of("""
            module child (input wire [7:0] x, output wire [7:0] y);
                parameter STEP = 8'd1;
                assign y = x + STEP;
            endmodule
            module top (input wire [7:0] a, output wire [7:0] r);
                wire [7:0] mid;
                child #(.STEP(8'd3)) u_one (.x(a), .y(mid));
                child u_two (.x(mid), .y(r));
            endmodule
        """, top="top")
        sim.poke("a", 10)
        assert sim.peek("r") == 14

    def test_a_designs_code_dies_with_the_design(self):
        """Rendered edges and cones stay out of the process's text memo."""
        import gc
        import weakref

        from repro.interp.ops import code_of

        sim = sim_of("""
            module m (input wire clk, input wire [7:0] a, output reg [7:0] r);
                always @(posedge clk) r <= a + 8'd7;
            endmodule
        """)
        sim.poke("a", 3)
        sim.step()
        assert sim.peek("r") == 10
        held = code_of.cache_info().currsize
        codes = [weakref.ref(sim.design.edge.__code__)]
        codes += [weakref.ref(cone.__code__) for cone in sim.design.cones.values()]
        del sim
        gc.collect()
        assert code_of.cache_info().currsize == held
        assert all(code() is None for code in codes)


class TestLintRules:
    def test_clean_module_has_no_issues(self):
        assert lint_verilog("""
            module m (input wire clk, input wire [3:0] a, output reg [3:0] r);
                always @(posedge clk) begin
                    r <= a;
                end
            endmodule
        """) == []

    def test_undeclared_identifier(self):
        issues = lint_verilog(
            "module m (output wire r); assign r = ghost; endmodule"
        )
        assert any("ghost" in i for i in issues)

    def test_width_overflow_flagged(self):
        issues = lint_verilog("""
            module m (input wire [63:0] a, output wire [31:0] r);
                assign r = a + 64'd1;
            endmodule
        """)
        assert any("64 bits" in i for i in issues)

    def test_multiply_driven_flagged(self):
        issues = lint_verilog("""
            module m (input wire clk, input wire x, output reg r);
                always @(posedge clk) begin r <= x; end
                always @(posedge clk) begin r <= !x; end
            endmodule
        """)
        assert any("multiply driven" in i for i in issues)

    def test_read_but_never_driven_flagged(self):
        issues = lint_verilog("""
            module m (output wire r);
                wire ghost;
                assign r = ghost;
            endmodule
        """)
        assert any("never driven" in i for i in issues)

    def test_input_driven_internally_flagged(self):
        issues = lint_verilog("""
            module m (input wire a, output wire r);
                assign a = 1'b0;
                assign r = a;
            endmodule
        """)
        assert any("input port" in i for i in issues)

    def test_fsm_case_missing_state_flagged(self):
        issues = lint_verilog("""
            module m (input wire clk);
                localparam STATE_IDLE = 2'd0;
                localparam S_B_0 = 2'd1;
                reg [1:0] state;
                always @(posedge clk) begin
                    case (state)
                        STATE_IDLE: begin state <= S_B_0; end
                        default: begin state <= STATE_IDLE; end
                    endcase
                end
            endmodule
        """)
        assert any("does not handle state S_B_0" in i for i in issues)

    def test_fsm_case_duplicate_item_flagged(self):
        issues = lint_verilog("""
            module m (input wire clk);
                localparam STATE_IDLE = 1'd0;
                reg state;
                always @(posedge clk) begin
                    case (state)
                        STATE_IDLE: begin state <= STATE_IDLE; end
                        1'd0: begin state <= STATE_IDLE; end
                        default: begin state <= STATE_IDLE; end
                    endcase
                end
            endmodule
        """)
        assert any("duplicate case item" in i for i in issues)

    def test_fsm_case_without_default_flagged(self):
        issues = lint_verilog("""
            module m (input wire clk);
                localparam STATE_IDLE = 1'd0;
                reg state;
                always @(posedge clk) begin
                    case (state)
                        STATE_IDLE: begin state <= STATE_IDLE; end
                    endcase
                end
            endmodule
        """)
        assert any("no default" in i for i in issues)
