(* The original linear flow-table lookup: the first entry in priority
   order whose match covers the packet fields. The differential suite
   and the classifier smoke check the cached lookup hierarchy against
   it. *)

open Horse_openflow

let lookup_reference t fields =
  List.find_opt
    (fun (e : Flow_table.entry) -> Ofmatch.matches e.Flow_table.match_ fields)
    (Flow_table.entries t)
