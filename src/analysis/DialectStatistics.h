//===- DialectStatistics.h - Section 6 evaluation tooling ----------*- C++ -*-===//
///
/// \file
/// The dialect introspection/statistics library behind the paper's
/// evaluation (Section 6) and the "IR Statistics" tooling of Figure 1.
/// Operates on resolved DialectSpecs: per-op records (operand/result/
/// attribute/region/variadic shapes, IRDL vs IRDL-C++ classification),
/// per-type/attribute records (parameter kinds, verifier classification),
/// and corpus-level aggregations for every figure.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_ANALYSIS_DIALECTSTATISTICS_H
#define IRDL_ANALYSIS_DIALECTSTATISTICS_H

#include "irdl/IRDL.h"

#include <array>
#include <map>
#include <string>
#include <vector>

namespace irdl {

/// The parameter kinds of Figure 8.
enum class ParamKind {
  AttrOrType,
  Integer,
  String,
  Float,
  Enum,
  Location,
  TypeId,
  DomainSpecific,
};

std::string_view paramKindName(ParamKind K);

/// Classifies one parameter constraint into its Figure 8 kind.
ParamKind classifyParamKind(const Constraint *C);

/// The Figure 12 categories of local constraints that need IRDL-C++.
/// Detection is by naming convention on named constraints plus a generic
/// fallback for anonymous C++ constraints.
enum class CppConstraintKind {
  IntegerInequality,
  StrideCheck,
  StructOpacity,
  Other,
};

std::string_view cppConstraintKindName(CppConstraintKind K);

/// Per-operation record.
struct OpRecord {
  std::string DialectName;
  std::string Name;
  unsigned NumOperandDefs = 0;
  unsigned NumVariadicOperandDefs = 0; // Variadic or Optional
  unsigned NumResultDefs = 0;
  unsigned NumVariadicResultDefs = 0;
  unsigned NumAttrDefs = 0;
  unsigned NumRegionDefs = 0;
  bool IsTerminator = false;
  bool LocalConstraintsInIRDL = true; // Figure 11a
  bool NeedsCppVerifier = false;      // Figure 11b
  /// Categories of local C++ constraints found on this op (Figure 12).
  std::vector<CppConstraintKind> LocalCppKinds;
};

/// Per-type/attribute record.
struct TypeAttrRecord {
  std::string DialectName;
  std::string Name;
  bool IsAttr = false;
  std::vector<ParamKind> ParamKinds;
  bool ParamsInIRDL = true;      // Figures 9a / 10a
  bool NeedsCppVerifier = false; // Figures 9b / 10b
};

/// All records of one dialect.
struct DialectStatistics {
  std::string Name;
  std::vector<OpRecord> Ops;
  std::vector<TypeAttrRecord> TypesAndAttrs;

  unsigned numOps() const { return Ops.size(); }
  unsigned numTypes() const;
  unsigned numAttrs() const;

  /// Fraction (0..1) of ops satisfying \p Pred.
  double opFraction(bool (*Pred)(const OpRecord &)) const;
};

/// A simple bucketed distribution (e.g. #ops with 0/1/2/3+ operands).
struct Distribution {
  /// Buckets 0..N-1, where the last bucket aggregates ">= N-1".
  std::vector<unsigned> Counts;
  unsigned Total = 0;

  explicit Distribution(unsigned NumBuckets = 4)
      : Counts(NumBuckets, 0) {}
  void add(unsigned ValueToBucket) {
    unsigned B = std::min<unsigned>(ValueToBucket, Counts.size() - 1);
    ++Counts[B];
    ++Total;
  }
  double fraction(unsigned Bucket) const {
    return Total ? static_cast<double>(Counts[Bucket]) / Total : 0.0;
  }
};

/// Corpus-level statistics: everything the evaluation section reports.
class CorpusStatistics {
public:
  /// Computes records for every dialect of \p Module. Dialects named
  /// "builtin"/"std" that come from the context rather than IRDL are not
  /// included (the module only holds IRDL-loaded dialects anyway).
  static CorpusStatistics
  compute(const std::vector<std::shared_ptr<DialectSpec>> &Dialects);

  const std::vector<DialectStatistics> &getDialects() const {
    return Dialects;
  }
  const DialectStatistics *lookup(std::string_view Name) const;

  unsigned totalOps() const;
  unsigned totalTypes() const;
  unsigned totalAttrs() const;

  /// Figure 5a / 6a / 7a-style distribution over all ops.
  Distribution operandCountDist() const;          // buckets 0,1,2,3+
  Distribution variadicOperandDist() const;       // buckets 0,1,2+
  Distribution resultCountDist() const;           // buckets 0,1,2+
  Distribution variadicResultDist() const;        // buckets 0,1+
  Distribution attrCountDist() const;             // buckets 0,1,2+
  Distribution regionCountDist() const;           // buckets 0,1,2+

  /// Per-dialect variants (series of Figures 5–7), same bucketing.
  Distribution operandCountDist(std::string_view Dialect) const;
  Distribution variadicOperandDist(std::string_view Dialect) const;
  Distribution resultCountDist(std::string_view Dialect) const;
  Distribution variadicResultDist(std::string_view Dialect) const;
  Distribution attrCountDist(std::string_view Dialect) const;
  Distribution regionCountDist(std::string_view Dialect) const;

  /// Figure 8: parameter-kind histograms, split for types and attributes.
  std::map<ParamKind, unsigned> typeParamKinds() const;
  std::map<ParamKind, unsigned> attrParamKinds() const;

  /// Figures 9/10: (#definitions whose params are pure IRDL, #needing
  /// IRDL-C++), and same for verifiers.
  struct Expressibility {
    unsigned PureIRDL = 0;
    unsigned NeedsCpp = 0;
    double cppFraction() const {
      unsigned T = PureIRDL + NeedsCpp;
      return T ? static_cast<double>(NeedsCpp) / T : 0.0;
    }
  };
  Expressibility typeParamExpressibility() const;
  Expressibility typeVerifierExpressibility() const;
  Expressibility attrParamExpressibility() const;
  Expressibility attrVerifierExpressibility() const;

  /// Figure 11: op local constraints and op verifiers.
  Expressibility opLocalConstraintExpressibility() const;
  Expressibility opVerifierExpressibility() const;
  Expressibility opLocalConstraintExpressibility(std::string_view D) const;
  Expressibility opVerifierExpressibility(std::string_view D) const;

  /// Figure 12: counts per local-C++-constraint category.
  std::map<CppConstraintKind, unsigned> localCppConstraintKinds() const;

  /// Fraction of dialects with at least one op satisfying \p Pred.
  double dialectFractionWithOp(bool (*Pred)(const OpRecord &)) const;

private:
  template <typename FieldFn>
  Distribution distOver(unsigned Buckets, FieldFn Field,
                        std::string_view Dialect = {}) const;

  std::vector<DialectStatistics> Dialects;
};

} // namespace irdl

#endif // IRDL_ANALYSIS_DIALECTSTATISTICS_H
