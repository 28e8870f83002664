let port = 9000
let usys_store s = Node_core.file_store (Files.of_usys s)
let usys_journal s = Journal.file_sink (Files.of_usys s) ~path:"/journal"
