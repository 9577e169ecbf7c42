#include "inputs.h"

namespace perfbench {

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Design
mult4()
{
    return {"mult4", "mult4",
            "module mult4 (A, B, C);\n"
            "  input [1:0] A, B;\n"
            "  output [3:0] C;\n"
            "  assign C = A * B;\n"
            "endmodule\n"};
}

Design
muxAddSub()
{
    return {"mux_add_sub", "mux_add_sub",
            "module mux_add_sub (A, B, sel, Y);\n"
            "  input [2:0] A, B;\n"
            "  input sel;\n"
            "  output [3:0] Y;\n"
            "  assign Y = sel ? (A - B) : (A + B);\n"
            "endmodule\n"};
}

Design
mapColoring()
{
    return {"map_coloring", "australia",
            "module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);\n"
            "  input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;\n"
            "  output valid;\n"
            "  assign valid = WA != NT && WA != SA && NT != SA && "
            "NT != QLD &&\n"
            "                 SA != QLD && SA != NSW && SA != VIC && "
            "QLD != NSW &&\n"
            "                 NSW != VIC && NSW != ACT;\n"
            "endmodule\n"};
}

Design
multiplier(unsigned bits)
{
    const std::string n = std::to_string(bits);
    const std::string top = "mul" + n;
    return {top, top,
            "module " + top + " (A, B, C);\n"
            "  input [" + std::to_string(bits - 1) + ":0] A, B;\n"
            "  output [" + std::to_string(2 * bits - 1) + ":0] C;\n"
            "  assign C = A * B;\n"
            "endmodule\n"};
}

Design
alu(unsigned bits)
{
    const std::string top = "alu" + std::to_string(bits);
    const std::string msb = std::to_string(bits - 1);
    return {top, top,
            "module " + top + " (a, b, op, y);\n"
            "  input [" + msb + ":0] a, b;\n"
            "  input [1:0] op;\n"
            "  output [" + msb + ":0] y;\n"
            "  assign y = (op == 2'd0) ? (a + b) :\n"
            "             (op == 2'd1) ? (a - b) :\n"
            "             (op == 2'd2) ? (a & b) : (a ^ b);\n"
            "endmodule\n"};
}

const std::vector<std::string> &
mapRegions()
{
    static const std::vector<std::string> r = {"WA", "NT", "SA", "QLD",
                                               "NSW", "VIC", "ACT"};
    return r;
}

const std::vector<std::pair<std::string, std::string>> &
mapBorders()
{
    static const std::vector<std::pair<std::string, std::string>> b = {
        {"WA", "NT"},   {"WA", "SA"},   {"NT", "SA"},  {"NT", "QLD"},
        {"SA", "QLD"},  {"SA", "NSW"},  {"SA", "VIC"}, {"QLD", "NSW"},
        {"NSW", "VIC"}, {"NSW", "ACT"},
    };
    return b;
}

std::string
Cnf::dimacs() const
{
    std::string text = "p cnf " + std::to_string(num_vars) + " " +
        std::to_string(clauses.size()) + "\n";
    for (const auto &c : clauses) {
        for (int32_t lit : c)
            text += std::to_string(lit) + " ";
        text += "0\n";
    }
    return text;
}

Cnf
plantedCnf(uint64_t seed, uint32_t num_vars, uint32_t num_clauses)
{
    uint64_t state = seed;
    auto below = [&](uint64_t n) { return mix(state++) % n; };
    Cnf cnf;
    cnf.num_vars = num_vars;
    cnf.planted.resize(num_vars);
    for (uint32_t v = 0; v < num_vars; ++v)
        cnf.planted[v] = below(2) != 0;
    for (uint32_t c = 0; c < num_clauses; ++c) {
        uint32_t vars[3];
        for (int k = 0; k < 3; ++k) {
            bool fresh = false;
            while (!fresh) {
                vars[k] = static_cast<uint32_t>(below(num_vars));
                fresh = true;
                for (int j = 0; j < k; ++j)
                    fresh = fresh && vars[j] != vars[k];
            }
        }
        bool neg[3];
        bool sat = false;
        for (int k = 0; k < 3; ++k) {
            neg[k] = below(2) != 0;
            sat = sat || (neg[k] != cnf.planted[vars[k]]);
        }
        if (!sat) {
            const uint64_t fix = below(3);
            neg[fix] = !cnf.planted[vars[fix]];
        }
        std::vector<int32_t> clause;
        for (int k = 0; k < 3; ++k) {
            const int32_t v = static_cast<int32_t>(vars[k]) + 1;
            clause.push_back(neg[k] ? -v : v);
        }
        cnf.clauses.push_back(std::move(clause));
    }
    return cnf;
}

} // namespace perfbench
