#include "sim/signal_trace.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace attila::sim
{

namespace
{

/** Escape '|' and newlines so records stay one per line. */
std::string
escapeField(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '|':
            out += "\\p";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\\':
            out += "\\\\";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
unescapeField(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '\\' && i + 1 < s.size()) {
            ++i;
            switch (s[i]) {
              case 'p':
                out += '|';
                break;
              case 'n':
                out += '\n';
                break;
              default:
                out += s[i];
            }
        } else {
            out += s[i];
        }
    }
    return out;
}

/**
 * Parse an unsigned decimal field.  Anything else — empty field,
 * stray characters, a sign, overflow — is a diagnostic FatalError
 * naming the file, line number and offending line, never a raw
 * std::invalid_argument out of the std::sto* family.
 */
u64
parseU64Field(const std::string& field, const char* what,
              const std::string& path, u64 line_no,
              const std::string& line)
{
    if (field.empty())
        fatal("signal trace: ", path, ":", line_no, ": empty ", what,
              " field in line: ", line);
    u64 value = 0;
    for (char c : field) {
        if (c < '0' || c > '9')
            fatal("signal trace: ", path, ":", line_no,
                  ": non-numeric ", what, " field '", field,
                  "' in line: ", line);
        const u64 digit = static_cast<u64>(c - '0');
        if (value > (~u64{0} - digit) / 10)
            fatal("signal trace: ", path, ":", line_no,
                  ": overflowing ", what, " field '", field,
                  "' in line: ", line);
        value = value * 10 + digit;
    }
    return value;
}

u32
parseU32Field(const std::string& field, const char* what,
              const std::string& path, u64 line_no,
              const std::string& line)
{
    const u64 value = parseU64Field(field, what, path, line_no, line);
    if (value > 0xFFFFFFFFull)
        fatal("signal trace: ", path, ":", line_no, ": overflowing ",
              what, " field '", field, "' in line: ", line);
    return static_cast<u32>(value);
}

} // anonymous namespace

SignalTraceWriter::SignalTraceWriter(const std::string& path)
    : _out(path)
{
    if (!_out)
        fatal("signal trace: cannot open '", path, "' for writing");
    _out << "# attila signal trace v1\n";
}

SignalTraceWriter::~SignalTraceWriter()
{
    flush();
}

void
SignalTraceWriter::record(Cycle cycle, const std::string& signal_name,
                          const DynamicObject& obj)
{
    _out << cycle << '|' << escapeField(signal_name) << '|'
         << obj.id() << '|' << escapeField(obj.trailString()) << '|'
         << obj.color() << '|' << escapeField(obj.info()) << '\n';
    ++_records;
}

void
SignalTraceWriter::flush()
{
    _out.flush();
}

SignalTraceReader::SignalTraceReader(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("signal trace: cannot open '", path, "' for reading");

    std::string line;
    bool first = true;
    u64 lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string field;
        SignalTraceRecord rec;

        const auto nextField = [&](const char* what) {
            if (!std::getline(ls, field, '|'))
                fatal("signal trace: ", path, ":", lineNo,
                      ": malformed line (missing ", what,
                      " field): ", line);
        };

        nextField("cycle");
        rec.cycle = parseU64Field(field, "cycle", path, lineNo, line);
        nextField("signal");
        rec.signal = unescapeField(field);
        nextField("object id");
        rec.objectId =
            parseU64Field(field, "object id", path, lineNo, line);
        nextField("trail");
        rec.trail = unescapeField(field);
        nextField("color");
        rec.color = parseU32Field(field, "color", path, lineNo, line);
        std::getline(ls, field);
        rec.info = unescapeField(field);

        if (first) {
            _firstCycle = rec.cycle;
            first = false;
        }
        _firstCycle = std::min(_firstCycle, rec.cycle);
        _lastCycle = std::max(_lastCycle, rec.cycle);
        _bySignal[rec.signal].push_back(rec.cycle);
        _records.push_back(std::move(rec));
    }
    for (auto& [name, cycles] : _bySignal)
        std::sort(cycles.begin(), cycles.end());
}

std::vector<std::string>
SignalTraceReader::signalNames() const
{
    std::vector<std::string> out;
    out.reserve(_bySignal.size());
    for (const auto& [name, cycles] : _bySignal)
        out.push_back(name);
    return out;
}

u64
SignalTraceReader::activity(const std::string& signal, Cycle from,
                            Cycle to) const
{
    auto it = _bySignal.find(signal);
    if (it == _bySignal.end())
        return 0;
    const auto& cycles = it->second;
    auto lo = std::lower_bound(cycles.begin(), cycles.end(), from);
    auto hi = std::lower_bound(cycles.begin(), cycles.end(), to);
    return static_cast<u64>(hi - lo);
}

} // namespace attila::sim
