#include "qubo/serialize.h"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace hcq::qubo {

void write_qubo(std::ostream& os, const qubo_model& q) {
    os << "hcq-qubo v1\n";
    os << std::setprecision(17);
    os << "n " << q.num_variables() << " offset " << q.offset() << "\n";
    for (std::size_t i = 0; i < q.num_variables(); ++i) {
        for (std::size_t j = i; j < q.num_variables(); ++j) {
            const double c = q.coefficient(i, j);
            if (c != 0.0) os << i << " " << j << " " << c << "\n";
        }
    }
}

qubo_model read_qubo(std::istream& is) {
    std::string line;
    const auto next_content_line = [&](std::string& out) -> bool {
        while (std::getline(is, out)) {
            const auto first = out.find_first_not_of(" \t\r");
            if (first == std::string::npos) continue;  // blank
            if (out[first] == '#') continue;           // comment
            return true;
        }
        return false;
    };

    if (!next_content_line(line) || line.rfind("hcq-qubo v1", 0) != 0) {
        throw std::invalid_argument("read_qubo: missing 'hcq-qubo v1' header");
    }
    if (!next_content_line(line)) {
        throw std::invalid_argument("read_qubo: missing size line");
    }
    std::istringstream header(line);
    std::string n_tag;
    std::string offset_tag;
    std::size_t n = 0;
    double offset = 0.0;
    header >> n_tag >> n >> offset_tag >> offset;
    if (header.fail() || n_tag != "n" || offset_tag != "offset") {
        throw std::invalid_argument("read_qubo: malformed size line: '" + line + "'");
    }
    if (n > max_read_variables) {  // n * n sizes the model and `seen` below
        throw std::invalid_argument("read_qubo: size line '" + line + "' exceeds the " +
                                    std::to_string(max_read_variables) + "-variable cap");
    }

    qubo_model q(n);
    q.set_offset(offset);
    std::vector<bool> seen(n * n, false);
    while (next_content_line(line)) {
        std::istringstream term(line);
        std::size_t i = 0;
        std::size_t j = 0;
        double c = 0.0;
        term >> i >> j >> c;
        if (term.fail()) {
            throw std::invalid_argument("read_qubo: malformed term line: '" + line + "'");
        }
        if (i >= n || j >= n || i > j) {
            throw std::invalid_argument("read_qubo: bad indices in '" + line + "'");
        }
        if (seen[i * n + j]) {
            throw std::invalid_argument("read_qubo: duplicate term in '" + line + "'");
        }
        seen[i * n + j] = true;
        q.set_term(i, j, c);
    }
    return q;
}

std::string to_string(const qubo_model& q) {
    std::ostringstream os;
    write_qubo(os, q);
    return os.str();
}

qubo_model from_string(const std::string& text) {
    std::istringstream is(text);
    return read_qubo(is);
}

}  // namespace hcq::qubo
