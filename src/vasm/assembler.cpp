#include "vasm/assembler.hpp"

#include <cctype>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "vasm/builder.hpp"

namespace fgpu::vasm {
namespace {

struct Line {
  std::string op;
  std::vector<std::string> operands;
  int number = 0;
};

std::string strip(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// Splits an operand list on commas, keeping "imm(reg)" forms intact.
std::vector<std::string> split_operands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(strip(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!strip(cur).empty()) out.push_back(strip(cur));
  return out;
}

bool parse_int(const std::string& s, int64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoll(s.c_str(), &end, 0);
  return end != nullptr && *end == '\0';
}

// Field ranges: I/S-type immediates are signed 12-bit, U-type the 20-bit
// upper value (as the disassembler prints it).
bool fits_imm12(int64_t v) { return v >= -2048 && v <= 2047; }
bool fits_imm20(int64_t v) { return v >= 0 && v <= 0xFFFFF; }

class Assembler {
 public:
  explicit Assembler(uint32_t base) : base_(base) {}

  Result<Program> run(const std::string& source) {
    std::vector<Line> lines;
    if (auto st = scan(source, lines); !st.is_ok()) return st;
    for (const auto& line : lines) {
      if (auto st = emit_line(line); !st.is_ok()) return st;
    }
    auto prog = builder_.finalize(base_);
    if (!prog.is_ok()) return prog.status();
    return prog;
  }

 private:
  Status error(int line, const std::string& msg) {
    return Status(ErrorKind::kCompileError, "line " + std::to_string(line) + ": " + msg);
  }

  // Pass 1: strip comments, register labels, collect instruction lines.
  Status scan(const std::string& source, std::vector<Line>& out) {
    std::string cur;
    int number = 0;
    size_t pos = 0;
    while (pos <= source.size()) {
      if (pos == source.size() || source[pos] == '\n') {
        ++number;
        std::string text = cur;
        cur.clear();
        ++pos;
        if (auto c = text.find('#'); c != std::string::npos) text = text.substr(0, c);
        if (auto c = text.find("//"); c != std::string::npos) text = text.substr(0, c);
        text = strip(text);
        while (!text.empty()) {
          auto colon = text.find(':');
          // Label definitions must be identifiers followed by ':'.
          if (colon != std::string::npos && text.find_first_of(" \t(") > colon) {
            std::string name = strip(text.substr(0, colon));
            if (name.empty()) return error(number, "empty label");
            labels_by_name_.emplace(name, get_label(name));
            pending_binds_.push_back({name, out.size()});
            text = strip(text.substr(colon + 1));
            continue;
          }
          break;
        }
        if (text.empty()) continue;
        Line line;
        line.number = number;
        auto space = text.find_first_of(" \t");
        line.op = text.substr(0, space);
        if (space != std::string::npos) line.operands = split_operands(text.substr(space + 1));
        // Bind pending labels to this instruction index via sentinel lines.
        out.push_back(line);
        continue;
      }
      cur += source[pos++];
    }
    return Status::ok();
  }

  AsmBuilder::Label get_label(const std::string& name) {
    auto it = label_ids_.find(name);
    if (it != label_ids_.end()) return it->second;
    auto l = builder_.make_label();
    label_ids_.emplace(name, l);
    return l;
  }

  Status emit_line(const Line& line) {
    // Bind any labels registered for this instruction index.
    while (bind_cursor_ < pending_binds_.size() &&
           pending_binds_[bind_cursor_].second == emitted_lines_) {
      builder_.mark_symbol(pending_binds_[bind_cursor_].first);
      builder_.bind(get_label(pending_binds_[bind_cursor_].first));
      ++bind_cursor_;
    }
    ++emitted_lines_;
    return emit_instruction(line);
  }

  Result<unsigned> xreg(const Line& line, const std::string& name) {
    if (auto r = arch::xreg_by_name(name)) return *r;
    return Result<unsigned>(ErrorKind::kCompileError,
                            "line " + std::to_string(line.number) + ": bad register '" + name + "'");
  }
  Result<unsigned> freg(const Line& line, const std::string& name) {
    if (auto r = arch::freg_by_name(name)) return *r;
    return Result<unsigned>(ErrorKind::kCompileError,
                            "line " + std::to_string(line.number) + ": bad fp register '" + name + "'");
  }
  Result<unsigned> reg(const Line& line, const std::string& name, bool fp) {
    return fp ? freg(line, name) : xreg(line, name);
  }

  // Parses "imm(reg)" into offset + base register.
  Status parse_mem(const Line& line, const std::string& s, int32_t& imm, unsigned& rs1) {
    auto open = s.find('(');
    auto close = s.find(')');
    if (open == std::string::npos || close == std::string::npos || close < open) {
      return error(line.number, "expected imm(reg): '" + s + "'");
    }
    int64_t v = 0;
    std::string imm_text = strip(s.substr(0, open));
    if (imm_text.empty()) imm_text.push_back('0');  // not `= "0"`: GCC 12 -Wrestrict
    if (!parse_int(imm_text, v)) return error(line.number, "bad offset '" + imm_text + "'");
    if (!fits_imm12(v)) return error(line.number, "immediate out of range: " + imm_text);
    imm = static_cast<int32_t>(v);
    auto r = xreg(line, strip(s.substr(open + 1, close - open - 1)));
    if (!r.is_ok()) return r.status();
    rs1 = *r;
    return Status::ok();
  }

  Status need_operands(const Line& line, size_t n) {
    if (line.operands.size() != n) {
      return error(line.number, "expected " + std::to_string(n) + " operands for '" + line.op +
                                    "', got " + std::to_string(line.operands.size()));
    }
    return Status::ok();
  }

  Status emit_instruction(const Line& line) {
    using arch::Op;
    const std::string& op = line.op;

    // Directives and pseudo-instructions ------------------------------
    if (op == ".word") {
      // Data words are not supported in the instruction stream; kernels get
      // constants via li / the argument block instead.
      return error(line.number, ".word unsupported in instruction stream");
    }
    if (op == "nop") {
      builder_.nop();
      return Status::ok();
    }
    if (op == "li") {
      if (auto st = need_operands(line, 2); !st.is_ok()) return st;
      auto rd = xreg(line, line.operands[0]);
      if (!rd.is_ok()) return rd.status();
      int64_t v = 0;
      if (!parse_int(line.operands[1], v)) return error(line.number, "bad immediate");
      builder_.li(*rd, static_cast<int32_t>(v));
      return Status::ok();
    }
    if (op == "mv") {
      if (auto st = need_operands(line, 2); !st.is_ok()) return st;
      auto rd = xreg(line, line.operands[0]);
      auto rs = xreg(line, line.operands[1]);
      if (!rd.is_ok()) return rd.status();
      if (!rs.is_ok()) return rs.status();
      builder_.mv(*rd, *rs);
      return Status::ok();
    }
    if (op == "j") {
      if (auto st = need_operands(line, 1); !st.is_ok()) return st;
      builder_.j(get_label(line.operands[0]));
      return Status::ok();
    }
    if (op == "la") {
      if (auto st = need_operands(line, 2); !st.is_ok()) return st;
      auto rd = xreg(line, line.operands[0]);
      if (!rd.is_ok()) return rd.status();
      builder_.la(*rd, get_label(line.operands[1]));
      return Status::ok();
    }
    if (op == "csrr") {
      if (auto st = need_operands(line, 2); !st.is_ok()) return st;
      auto rd = xreg(line, line.operands[0]);
      if (!rd.is_ok()) return rd.status();
      int64_t csr = 0;
      if (!parse_int(line.operands[1], csr)) return error(line.number, "bad CSR number");
      builder_.csr_read(*rd, static_cast<uint32_t>(csr));
      return Status::ok();
    }

    auto maybe = arch::op_by_name(op);
    if (!maybe) return error(line.number, "unknown mnemonic '" + op + "'");
    const auto& info = arch::op_info(*maybe);
    const bool fd = arch::writes_freg(*maybe);
    const bool f1 = arch::reads_freg_rs1(*maybe);
    const bool f2 = arch::reads_freg_rs2(*maybe);

    switch (info.fmt) {
      case arch::Format::kR: {
        if (*maybe == Op::kTmc) {
          if (auto st = need_operands(line, 1); !st.is_ok()) return st;
          auto rs1 = xreg(line, line.operands[0]);
          if (!rs1.is_ok()) return rs1.status();
          builder_.tmc(*rs1);
          return Status::ok();
        }
        if (*maybe == Op::kWspawn || *maybe == Op::kBar) {
          if (auto st = need_operands(line, 2); !st.is_ok()) return st;
          auto rs1 = xreg(line, line.operands[0]);
          auto rs2 = xreg(line, line.operands[1]);
          if (!rs1.is_ok()) return rs1.status();
          if (!rs2.is_ok()) return rs2.status();
          builder_.emit_r(*maybe, 0, *rs1, *rs2);
          return Status::ok();
        }
        if (info.match_rs2) {  // unary FP ops: fsqrt.s, fcvt.*, fmv.*
          if (auto st = need_operands(line, 2); !st.is_ok()) return st;
          auto rd = reg(line, line.operands[0], fd);
          auto rs1 = reg(line, line.operands[1], f1);
          if (!rd.is_ok()) return rd.status();
          if (!rs1.is_ok()) return rs1.status();
          builder_.emit_r(*maybe, *rd, *rs1, 0);
          return Status::ok();
        }
        if (auto st = need_operands(line, 3); !st.is_ok()) return st;
        auto rd = reg(line, line.operands[0], fd);
        auto rs1 = reg(line, line.operands[1], f1);
        auto rs2 = reg(line, line.operands[2], f2);
        if (!rd.is_ok()) return rd.status();
        if (!rs1.is_ok()) return rs1.status();
        if (!rs2.is_ok()) return rs2.status();
        builder_.emit_r(*maybe, *rd, *rs1, *rs2);
        return Status::ok();
      }
      case arch::Format::kR4: {
        if (auto st = need_operands(line, 4); !st.is_ok()) return st;
        auto rd = freg(line, line.operands[0]);
        auto rs1 = freg(line, line.operands[1]);
        auto rs2 = freg(line, line.operands[2]);
        auto rs3 = freg(line, line.operands[3]);
        if (!rd.is_ok()) return rd.status();
        if (!rs1.is_ok()) return rs1.status();
        if (!rs2.is_ok()) return rs2.status();
        if (!rs3.is_ok()) return rs3.status();
        builder_.emit_r4(*maybe, *rd, *rs1, *rs2, *rs3);
        return Status::ok();
      }
      case arch::Format::kI: {
        const bool is_mem = *maybe == Op::kLb || *maybe == Op::kLh || *maybe == Op::kLw ||
                            *maybe == Op::kLbu || *maybe == Op::kLhu || *maybe == Op::kFlw ||
                            *maybe == Op::kJalr;
        if (is_mem && line.operands.size() == 2 &&
            line.operands[1].find('(') != std::string::npos) {
          auto rd = reg(line, line.operands[0], fd);
          if (!rd.is_ok()) return rd.status();
          int32_t imm = 0;
          unsigned rs1 = 0;
          if (auto st = parse_mem(line, line.operands[1], imm, rs1); !st.is_ok()) return st;
          builder_.emit_i(*maybe, *rd, rs1, imm);
          return Status::ok();
        }
        if (auto st = need_operands(line, 3); !st.is_ok()) return st;
        auto rd = reg(line, line.operands[0], fd);
        auto rs1 = xreg(line, line.operands[1]);
        if (!rd.is_ok()) return rd.status();
        if (!rs1.is_ok()) return rs1.status();
        int64_t v = 0;
        if (!parse_int(line.operands[2], v)) return error(line.number, "bad immediate");
        if (!fits_imm12(v)) {
          return error(line.number, "immediate out of range: " + line.operands[2]);
        }
        builder_.emit_i(*maybe, *rd, *rs1, static_cast<int32_t>(v));
        return Status::ok();
      }
      case arch::Format::kIShift: {
        if (auto st = need_operands(line, 3); !st.is_ok()) return st;
        auto rd = xreg(line, line.operands[0]);
        auto rs1 = xreg(line, line.operands[1]);
        if (!rd.is_ok()) return rd.status();
        if (!rs1.is_ok()) return rs1.status();
        int64_t v = 0;
        if (!parse_int(line.operands[2], v) || v < 0 || v > 31) {
          return error(line.number, "bad shift amount");
        }
        builder_.emit_i(*maybe, *rd, *rs1, static_cast<int32_t>(v));
        return Status::ok();
      }
      case arch::Format::kS: {
        if (auto st = need_operands(line, 2); !st.is_ok()) return st;
        auto rs2 = reg(line, line.operands[0], f2);
        if (!rs2.is_ok()) return rs2.status();
        int32_t imm = 0;
        unsigned rs1 = 0;
        if (auto st = parse_mem(line, line.operands[1], imm, rs1); !st.is_ok()) return st;
        builder_.emit_s(*maybe, rs1, *rs2, imm);
        return Status::ok();
      }
      case arch::Format::kJr: {
        if (auto st = need_operands(line, 2); !st.is_ok()) return st;
        auto rs1 = xreg(line, line.operands[0]);
        if (!rs1.is_ok()) return rs1.status();
        auto label = get_label(line.operands[1]);
        if (*maybe == Op::kSplit) {
          builder_.emit_split(*rs1, label);
        } else {
          builder_.emit_pred(*rs1, label);
        }
        return Status::ok();
      }
      case arch::Format::kB: {
        if (auto st = need_operands(line, 3); !st.is_ok()) return st;
        auto rs1 = xreg(line, line.operands[0]);
        auto rs2 = xreg(line, line.operands[1]);
        if (!rs1.is_ok()) return rs1.status();
        if (!rs2.is_ok()) return rs2.status();
        builder_.emit_branch(*maybe, *rs1, *rs2, get_label(line.operands[2]));
        return Status::ok();
      }
      case arch::Format::kU: {
        if (auto st = need_operands(line, 2); !st.is_ok()) return st;
        auto rd = xreg(line, line.operands[0]);
        if (!rd.is_ok()) return rd.status();
        int64_t v = 0;
        if (!parse_int(line.operands[1], v)) return error(line.number, "bad immediate");
        if (!fits_imm20(v)) {
          return error(line.number, "immediate out of range: " + line.operands[1]);
        }
        builder_.emit_u(*maybe, *rd, static_cast<int32_t>(v));
        return Status::ok();
      }
      case arch::Format::kJ: {
        if (*maybe == Op::kJoin) {
          if (auto st = need_operands(line, 1); !st.is_ok()) return st;
          builder_.emit_join(get_label(line.operands[0]));
          return Status::ok();
        }
        if (auto st = need_operands(line, 2); !st.is_ok()) return st;
        auto rd = xreg(line, line.operands[0]);
        if (!rd.is_ok()) return rd.status();
        builder_.emit_jal(*rd, get_label(line.operands[1]));
        return Status::ok();
      }
      case arch::Format::kCsr: {
        if (auto st = need_operands(line, 3); !st.is_ok()) return st;
        auto rd = xreg(line, line.operands[0]);
        if (!rd.is_ok()) return rd.status();
        int64_t csr = 0;
        if (!parse_int(line.operands[1], csr)) return error(line.number, "bad CSR number");
        auto rs1 = xreg(line, line.operands[2]);
        if (!rs1.is_ok()) return rs1.status();
        builder_.emit_i(*maybe, *rd, *rs1, static_cast<int32_t>(csr));
        return Status::ok();
      }
      case arch::Format::kAmo: {
        // amoadd.w rd, rs2, (rs1)
        if (auto st = need_operands(line, 3); !st.is_ok()) return st;
        auto rd = xreg(line, line.operands[0]);
        auto rs2 = xreg(line, line.operands[1]);
        if (!rd.is_ok()) return rd.status();
        if (!rs2.is_ok()) return rs2.status();
        int32_t imm = 0;
        unsigned rs1 = 0;
        if (auto st = parse_mem(line, line.operands[2], imm, rs1); !st.is_ok()) return st;
        if (imm != 0) return error(line.number, "AMO offset must be 0");
        builder_.emit_r(*maybe, *rd, rs1, *rs2);
        return Status::ok();
      }
      case arch::Format::kSys: {
        builder_.emit(arch::Instr{.op = *maybe});
        return Status::ok();
      }
    }
    return error(line.number, "unhandled format");
  }

  uint32_t base_;
  AsmBuilder builder_;
  std::unordered_map<std::string, AsmBuilder::Label> label_ids_;
  std::unordered_map<std::string, AsmBuilder::Label> labels_by_name_;
  std::vector<std::pair<std::string, size_t>> pending_binds_;  // label -> instr index
  size_t bind_cursor_ = 0;
  size_t emitted_lines_ = 0;
};

}  // namespace

Result<Program> assemble(const std::string& source, uint32_t base) {
  Assembler assembler(base);
  auto result = assembler.run(source);
  return result;
}

}  // namespace fgpu::vasm
